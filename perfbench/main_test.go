package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		q      float64
		v      float64
		beyond int
	}{
		{0.5, 500, 500},
		{0.99, 990, 10},
		{0.999, 999, 1},
		{1, 1000, 0},
		{0, 1, 999},
	} {
		v, beyond := quantile(xs, c.q)
		if v != c.v || beyond != c.beyond {
			t.Errorf("quantile(1..1000, %g) = %g with %d beyond, want %g with %d", c.q, v, beyond, c.v, c.beyond)
		}
	}
	if v, beyond := quantile([]float64{7}, 0.99); v != 7 || beyond != 0 {
		t.Errorf("single sample: got %g, %d beyond", v, beyond)
	}
	if v, beyond := quantile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("empty: got %g, %d beyond", v, beyond)
	}
}

// TestTailNeedsTenBeyond pins the reporting rule: a percentile is
// reported only when at least ten samples lie beyond it.
func TestTailNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, err := tail(xs, 0.99, "x"); err != nil || v != 989 {
		t.Fatalf("1000 samples: p99 = %g, %v; want 989 with ten beyond", v, err)
	}
	if _, err := tail(xs[:999], 0.99, "x"); err == nil {
		t.Fatal("999 samples leave nine beyond p99; want an error")
	}
	if _, err := tail(xs[:20], 0.5, "x"); err != nil {
		t.Fatalf("20 samples leave ten beyond p50: %v", err)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	in := []float64{4, 1, 3, 2}
	if m := median(in); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	if !slices.Equal(in, []float64{4, 1, 3, 2}) {
		t.Error("median reordered its input")
	}
}

func TestSelfTimes(t *testing.T) {
	r := newRecorder()
	op := r.add("dex.op", 0, 100, -1, 0)
	r.add("dex.lock_wait", 0, 10, op, 0)
	r.add("core.op", 500, 560, op, 0)
	if got := r.selfTimes("dex.op"); len(got) != 1 || got[0] != 30 {
		t.Fatalf("self time = %v, want [30]", got)
	}
	o := &recorder{origin: r.origin}
	read := o.add("dex.read", 0, 5, -1, -1)
	o.add("dex.lock_wait", 0, 4, read, -1)
	r.merge(o)
	if got := r.selfTimes("dex.read"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("merged self time = %v, want [1]", got)
	}
}

// tiny shrinks a workload so a run takes about a second.
func tiny(t *testing.T, name string, trace bool) *config {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	// Each of the chunks needs 1000 ops for its p99.
	w.opsPerSecond = 5000
	if w.cycles() {
		w.n, w.lo = 2048, 128
		w.opsPerSecond = 7680
	} else {
		w.n = 1024
	}
	dir := t.TempDir()
	return &config{
		w: w, seed: 3, seconds: 1, trace: trace,
		setups: 2, reopens: 2, readRate: 20000, snapshotEvery: 100,
		work: dir + "/work", spans: dir + "/spans",
	}
}

// runTiny runs cf and decodes the JSON line report prints.
func runTiny(t *testing.T, cf *config) map[string]float64 {
	t.Helper()
	res, err := run(cf)
	if err != nil {
		t.Fatal(err)
	}
	line, err := report(cf, res)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct {
		t.Fatalf("run not correct: %v", res.problems)
	}
	if got.Attempted != cf.measuredOps() {
		t.Errorf("attempted %d, want %d", got.Attempted, cf.measuredOps())
	}
	defs := endToEnd
	if cf.trace {
		defs = perLayer
	}
	if len(got.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d declared", len(got.Metrics), len(defs))
	}
	vals := map[string]float64{}
	for _, d := range defs {
		m, ok := got.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", d.name, m.Value)
		}
		vals[d.name] = m.Value
	}
	return vals
}

// mayBeZero lists the metrics that are legitimately zero on a workload:
// counters of events the workload does not produce.
func mayBeZero(workload, name string) bool {
	switch name {
	case "op_fail_ratio", "core.walk_retries_per_op", "core.floods_per_op", "trace.overhead":
		return true
	case "core.type2_step_p99_us", "core.stagger_step_p50_us", "core.stagger_step_p99_us", "core.stagger_share", "core.rebuilds", "pcycle.build_ms":
		return workload != "rebuild"
	case "recover_s", "read_p50_us", "read_p99_us", "reader.late_p99_us", "persist.self_us", "persist.wal_bytes_per_op", "persist.checkpoint_bytes", "persist.checkpoint_ms", "persist.replay_ops_per_s":
		return workload != "durable"
	case "graph.live_cells_drift", "dex.lock_wait_p50_us", "core.fast_insert_share":
		return true
	}
	return false
}

// TestTinyRunsReportEveryMetric runs every workload at a tiny scale in
// both modes and checks that each declared metric comes out finite,
// and non-zero unless the workload has nothing to count. A reporter
// that silently drops or zeroes a metric fails here.
func TestTinyRunsReportEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				vals := runTiny(t, tiny(t, w.name, trace))
				for k, v := range vals {
					if v == 0 && !mayBeZero(w.name, k) {
						t.Errorf("metric %s is zero", k)
					}
				}
				if trace && w.name == "steady" && vals["core.rebuilds"] != 0 {
					t.Errorf("steady rebuilt %v times", vals["core.rebuilds"])
				}
			})
		}
	}
}

// TestExactCountersRepeat runs one traced workload twice on a seed and
// requires the exact counters to agree bit for bit.
func TestExactCountersRepeat(t *testing.T) {
	a := runTiny(t, tiny(t, "rebuild", true))
	b := runTiny(t, tiny(t, "rebuild", true))
	for _, k := range []string{"msgs_per_op", "rounds_per_op", "topo_per_op", "rounds_max", "topo_max", "spectral_gap", "graph.deltas_per_op", "core.rebuilds", "core.stagger_share", "dex.events_per_op"} {
		if a[k] != b[k] {
			t.Errorf("%s: %v then %v", k, a[k], b[k])
		}
	}
}

func TestInjectedFailuresRaiseFailRatio(t *testing.T) {
	cf := tiny(t, "steady", true)
	cf.failEvery = 10
	vals := runTiny(t, cf)
	if got := vals["op_fail_ratio"]; got != 0.1 {
		t.Fatalf("op_fail_ratio = %v with every tenth op failing, want 0.1", got)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, the benchmark's
// declared workloads and metrics, in step with the tables the program
// reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		s := spec.EndToEnd[i]
		if s.Name != m.name || s.Unit != m.unit || s.Better != m.better || s.Bound != m.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, program has %+v", i, s, m)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		s := spec.PerLayer[i]
		if s.Name != m.name || s.Unit != m.unit || s.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, program has %+v", i, s, m)
		}
	}
}
