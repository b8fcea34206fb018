// Command perfbench is the repository benchmark: it drives one seeded
// workload through the public dex API as users configure it (Staggered
// mode, zeta 8, sampled audit, edge events with one subscriber, and for
// durable a group-commit WAL), checks the outputs, and prints every
// metric by name with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured without
// tracing. With --trace 1 the same workload runs with spans recorded
// around every call into a layer, the recorded op trace is replayed at
// each layer (graph, core, pcycle, dex, persist), and the metrics are
// the per-layer ones; spans are written to .bench_build/spans/.
//
// Run it from the repository root through perfbench/run.sh, which
// builds it first:
//
//	bash perfbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metric is one reported figure. moves names, for a per-layer metric,
// the end-to-end metric it should move and on which workload.
type metric struct {
	name, unit, better string
	bound              float64
	moves              string
}

// endToEnd are the gated metrics a user of the network sees; each
// carries the share of the parent's median by which it may worsen.
// The op tail and throughput are not among them: on durable both follow
// the host's fsync latency, which moved op_p99_us by 2x and ops_per_s
// by 20% between runs of the same code.
var endToEnd = []metric{
	{name: "op_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "heap_bytes_per_node", unit: "B", better: "lower", bound: 0.15},
}

// perLayer are reported by the traced run. Every run prints the
// end-to-end figures that are not gated too: the op tail and
// throughput (see endToEnd), the paper's costs, exact
// for a seed but differing between seeds by more than any useful bound
// (messages carry the coordinator's degree), and the durable-only read
// and recovery figures, which a metric every workload must report
// cannot carry.
var perLayer = []metric{
	{name: "op_p99_us", unit: "us", better: "lower", moves: "end to end; ungated, follows fsync latency on durable"},
	{name: "ops_per_s", unit: "1/s", better: "higher", moves: "end to end; ungated, follows fsync latency on durable"},
	{name: "read_p50_us", unit: "us", better: "lower", moves: "durable only: open-loop reads beside the writer"},
	{name: "read_p99_us", unit: "us", better: "lower", moves: "durable only: open-loop reads beside the writer"},
	{name: "msgs_per_op", unit: "count", better: "lower", moves: "exact paper cost; all workloads"},
	{name: "rounds_per_op", unit: "count", better: "lower", moves: "exact paper cost; all workloads"},
	{name: "topo_per_op", unit: "count", better: "lower", moves: "exact paper cost; all workloads"},
	{name: "rounds_max", unit: "count", better: "lower", moves: "exact paper cost; all workloads"},
	{name: "topo_max", unit: "count", better: "lower", moves: "exact paper cost; all workloads"},
	{name: "spectral_gap", unit: "ratio", better: "higher", moves: "exact for a seed; expansion of the final overlay"},
	{name: "op_fail_ratio", unit: "ratio", better: "lower", moves: "failed / attempted mutating ops; all workloads"},
	{name: "recover_s", unit: "s", better: "lower", moves: "durable only: reopen until the first op is served"},
	{name: "reader.late_p99_us", unit: "us", better: "lower", moves: "how late the open-loop generator issued reads; qualifies read_p99_us"},

	{name: "graph.apply_ns_per_delta", unit: "ns", better: "lower", moves: "op_p50_us on steady"},
	{name: "graph.walk_hop_ns", unit: "ns", better: "lower", moves: "op_p50_us on steady"},
	{name: "graph.deltas_per_op", unit: "count", better: "lower", moves: "op_p50_us on steady (exact)"},
	{name: "graph.live_cells_per_node", unit: "count", better: "lower", moves: "heap_bytes_per_node on steady and rebuild"},
	{name: "graph.free_cell_ratio", unit: "ratio", better: "lower", moves: "heap_bytes_per_node on steady and rebuild"},
	{name: "graph.live_cells_drift", unit: "ratio", better: "lower", moves: "stationarity evidence for steady and durable"},

	{name: "core.op_p50_us", unit: "us", better: "lower", moves: "op_p50_us on steady"},
	{name: "core.op_p99_us", unit: "us", better: "lower", moves: "op_p99_us on steady"},
	{name: "core.share", unit: "ratio", better: "lower", moves: "op_p50_us and op_p99_us on steady"},
	{name: "core.walk_retries_per_op", unit: "count", better: "lower", moves: "op_p99_us on steady (exact)"},
	{name: "core.floods_per_op", unit: "count", better: "lower", moves: "op_p99_us on steady (exact)"},
	{name: "core.fast_insert_share", unit: "ratio", better: "higher", moves: "op_p50_us on steady (exact)"},
	{name: "core.audit_p50_us", unit: "us", better: "lower", moves: "op_p50_us and ops_per_s on steady"},
	{name: "core.audit_share", unit: "ratio", better: "lower", moves: "op_p50_us and ops_per_s on steady"},
	{name: "core.audit_allocs_per_op", unit: "count", better: "lower", moves: "op_p50_us and ops_per_s on steady"},
	{name: "core.type2_step_p99_us", unit: "us", better: "lower", moves: "op_p99_us on rebuild"},
	{name: "core.stagger_step_p50_us", unit: "us", better: "lower", moves: "op_p99_us on rebuild"},
	{name: "core.stagger_step_p99_us", unit: "us", better: "lower", moves: "op_p99_us on rebuild"},
	{name: "core.stagger_share", unit: "ratio", better: "lower", moves: "op_p99_us on rebuild (exact; 0 on steady)"},
	{name: "core.rebuilds", unit: "count", better: "lower", moves: "op_p99_us on rebuild (exact; 0 on steady)"},

	{name: "pcycle.build_ms", unit: "ms", better: "lower", moves: "op_p99_us on rebuild"},

	{name: "dex.self_us", unit: "us", better: "lower", moves: "op_p50_us on steady and rebuild"},
	{name: "dex.allocs_per_op", unit: "count", better: "lower", moves: "op_p50_us on steady and rebuild"},
	{name: "dex.events_per_op", unit: "count", better: "lower", moves: "op_p50_us on steady and rebuild (exact)"},
	{name: "dex.lock_wait_p50_us", unit: "us", better: "lower", moves: "read_p99_us and op_p99_us on durable"},
	{name: "dex.lock_wait_p99_us", unit: "us", better: "lower", moves: "read_p99_us and op_p99_us on durable"},

	{name: "persist.self_us", unit: "us", better: "lower", moves: "op_p50_us on durable"},
	{name: "persist.wal_bytes_per_op", unit: "B", better: "lower", moves: "op_p50_us on durable (exact)"},
	{name: "persist.checkpoint_bytes", unit: "B", better: "lower", moves: "op_p99_us on durable (exact)"},
	{name: "persist.checkpoint_ms", unit: "ms", better: "lower", moves: "op_p99_us and read_p99_us on durable"},
	{name: "persist.replay_ops_per_s", unit: "1/s", better: "higher", moves: "recover_s on durable"},

	{name: "trace.overhead", unit: "ratio", better: "lower", moves: "traced op_p50_us over untraced, minus 1"},
}

// result is the benchmark's verdict for one run.
type result struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	problems  []string
}

func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// run executes one workload run and returns its verdict. An error
// means the run could not produce a result at all.
func run(cf *config) (*result, error) {
	res := &result{correct: true, values: map[string]float64{}}
	if err := os.MkdirAll(cf.work, 0o755); err != nil {
		return nil, err
	}
	setups := 1
	if !cf.trace {
		setups = cf.setups
	}
	var e *env
	var times []float64
	for k := 0; k < setups; k++ {
		if e != nil {
			e.close()
			e = nil
		}
		t := time.Now()
		var err error
		e, err = setup(cf, k)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	defer e.close()
	if !e.settled {
		res.fail("warm-up did not reach the stationarity test")
	}
	res.values["setup_s"] = median(times)

	rc := newRecorder()
	m, err := measure(cf, e, rc)
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed = m.attempted, m.failed

	if err := chunked(cf, m, res.values); err != nil {
		res.fail("%v", err)
	}
	m.costs.report(res.values)
	res.values["op_fail_ratio"] = float64(m.failed) / float64(m.attempted)
	res.values["reader.late_p99_us"], _ = quantile(sortedCopy(m.late), 0.99)
	fmt.Printf("measured: %d ops in %.2fs, %d reads (reader late p50 %.1fus, p99 %.1fus, max %.1fus)\n",
		m.attempted, m.elapsed.Seconds(), len(m.readLat), quant(m.late, 0.5), quant(m.late, 0.99), quant(m.late, 1))

	if !cf.trace {
		res.values["heap_bytes_per_node"] = heapPerNode(e.c)
	}
	if err := check(e.c, m); err != nil {
		res.fail("%v", err)
	}
	if cf.trace {
		final, _ := e.c.Snapshot()
		if err := layers(cf, e, m, final, rc, res.values); err != nil {
			res.fail("%v", err)
		}
		path := filepath.Join(cf.spans, fmt.Sprintf("%s-seed%d.tsv", cf.w.name, cf.seed))
		if err := rc.write(path); err != nil {
			res.fail("writing spans: %v", err)
		} else {
			fmt.Printf("spans: %d written to %s\n", len(rc.spans), path)
		}
	}
	res.values["recover_s"] = 0
	if cf.w.durable {
		times, err := reopen(cf, e)
		if err != nil {
			res.fail("%v", err)
		}
		res.values["recover_s"] = median(times)
	}
	return res, nil
}

// chunks is how many consecutive slices of the measured phase the
// end-to-end figures are taken over; each is reported as the median of
// its per-chunk values, so a burst of interference on the host moves
// one chunk, not the result.
const chunks = 5

// chunked fills the end-to-end latency and throughput figures from m:
// each is computed per chunk of consecutive ops (or reads) and the
// median across chunks is reported.
func chunked(cf *config, m *measured, out map[string]float64) error {
	var p50, p99, rate, r50, r99 []float64
	opsPer, readsPer := len(m.opLat)/chunks, len(m.readLat)/chunks
	for c := 0; c < chunks; c++ {
		lat := sortedCopy(m.opLat[c*opsPer : (c+1)*opsPer])
		v, _ := quantile(lat, 0.5)
		p50 = append(p50, v)
		v, err := tail(lat, 0.99, "op_p99_us")
		if err != nil {
			return err
		}
		p99 = append(p99, v)
		rate = append(rate, 1e6*float64(opsPer)/sum(m.opLat[c*opsPer:(c+1)*opsPer]))
		if !cf.w.durable {
			continue
		}
		reads := sortedCopy(m.readLat[c*readsPer : (c+1)*readsPer])
		v, _ = quantile(reads, 0.5)
		r50 = append(r50, v)
		if v, err = tail(reads, 0.99, "read_p99_us"); err != nil {
			return err
		}
		r99 = append(r99, v)
	}
	out["op_p50_us"], out["op_p99_us"], out["ops_per_s"] = median(p50), median(p99), median(rate)
	out["read_p50_us"], out["read_p99_us"] = median(r50), median(r99)
	fmt.Printf("chunks of %d ops: op p50 %.4g us, p99 %.4g us, ops/s %.4g\n", opsPer, p50, p99, rate)
	if cf.w.durable {
		fmt.Printf("chunks of %d reads: p50 %.4g us, p99 %.4g us\n", readsPer, r50, r99)
	}
	return nil
}

func quant(xs []float64, q float64) float64 {
	v, _ := quantile(sortedCopy(xs), q)
	return v
}

// report prints every metric of the run's mode by name and unit, then
// the JSON result line. A declared metric the run did not produce, or
// one that is not finite, makes the result incorrect.
func report(cf *config, res *result) ([]byte, error) {
	defs := endToEnd
	if cf.trace {
		defs = perLayer
	} else {
		// Print the ungated end-to-end figures this run measured too.
		for _, d := range perLayer {
			if v, ok := res.values[d.name]; ok {
				fmt.Printf("%-28s %16.6g %-6s (%s is better; not gated)\n", d.name, v, d.unit, d.better)
			}
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, d := range defs {
		v, ok := res.values[d.name]
		switch {
		case !ok:
			res.fail("metric %s was not measured", d.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			res.fail("metric %s is %v", d.name, v)
			v = 0
		}
		out[d.name] = value{v, d.unit}
		line := fmt.Sprintf("%-28s %16.6g %-6s (%s is better", d.name, v, d.unit, d.better)
		if d.moves != "" {
			line += "; moves " + d.moves
		}
		fmt.Println(line + ")")
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench:", p)
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, out})
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+workloadNames())
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measured work, in seconds of the workload's nominal op rate")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
		work    = flag.String("work", ".bench_build/work", "scratch directory for durable state")
		spans   = flag.String("spans", ".bench_build/spans", "directory the traced run writes spans to")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cf := &config{
		w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		setups: 3, reopens: 3, readRate: 2000, snapshotEvery: 1000,
		work: filepath.Join(*work, fmt.Sprintf("%d", os.Getpid())), spans: *spans,
	}
	defer os.RemoveAll(cf.work)
	res, err := run(cf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.RemoveAll(cf.work)
		os.Exit(1)
	}
	line, err := report(cf, res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.RemoveAll(cf.work)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}
