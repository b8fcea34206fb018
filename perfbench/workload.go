package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"repro/dex"
	"repro/internal/graph"
)

// historyCap bounds the per-step history a long-running network keeps,
// as a long-lived deployment would configure it.
const historyCap = 4096

// workload is one seeded input the benchmark drives through the
// public dex API.
type workload struct {
	name string
	why  string
	// n is the held size (steady, durable) or the top of the cycle
	// (rebuild); lo is the bottom of the cycle.
	n, lo int
	// opsPerSecond sizes the measured phase: --seconds times this many
	// mutating ops (whole cycles for rebuild), so the work, and every
	// exact counter, is fixed by the seed and --seconds.
	opsPerSecond int
	// durable adds the WAL and the open-loop reader.
	durable bool
}

func (w workload) cycles() bool { return w.lo > 0 }

// initialSize is the size the network is constructed at.
func (w workload) initialSize() int {
	if w.cycles() {
		return w.lo
	}
	return w.n
}

var workloads = []workload{
	{
		name:         "steady",
		why:          "n=32768 held by uniform delete+insert pairs after warm-up settles: graph, core type-1 walks and the sampled audit do the work; no type-2 rebuild, no WAL",
		n:            32768,
		opsPerSecond: 5500,
	},
	{
		name:         "rebuild",
		why:          "n cycles 2048<->32768 by one-sided inserts then deletes: pcycle construction, type-2 triggers and staggered rebuild steps set the tail",
		n:            32768,
		lo:           2048,
		opsPerSecond: 12000,
	},
	{
		name:         "durable",
		why:          "n=16384 churn through the concurrent facade with fsync'd group-commit WAL and checkpoints beside an open-loop reader: persist and the facade lock",
		n:            16384,
		opsPerSecond: 4400,
		durable:      true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is one run of the benchmark.
type config struct {
	w       workload
	seed    int64
	seconds int
	trace   bool

	setups        int // setups timed for setup_s (median reported)
	reopens       int // durable reopens timed for recover_s
	readRate      int // open-loop reads per second
	snapshotEvery int // every k-th read is a Snapshot
	work          string
	spans         string

	// failEvery > 0 makes every failEvery-th mutating op delete an
	// unknown node: a rejected op, so op_fail_ratio can be tested.
	failEvery int
}

func (cf *config) opts(extra ...dex.Option) []dex.Option {
	o := []dex.Option{
		dex.WithInitialSize(cf.w.initialSize()),
		dex.WithSeed(cf.seed),
		dex.WithMode(dex.Staggered),
		dex.WithZeta(8),
		dex.WithEdgeEvents(true),
		dex.WithHistoryCap(historyCap),
	}
	return append(o, extra...)
}

// measuredOps is the number of mutating ops in the measured phase.
func (cf *config) measuredOps() int {
	k := cf.seconds * cf.w.opsPerSecond
	if cf.w.cycles() {
		per := 2 * (cf.w.n - cf.w.lo)
		return max(1, (k+per/2)/per) * per
	}
	return max(2, k&^1)
}

// rec is one successful churn op, enough to replay it.
type rec struct {
	del    bool
	id, at dex.NodeID
}

type mutator interface {
	Insert(id, attach dex.NodeID) error
	Delete(id dex.NodeID) error
}

func (r rec) apply(m mutator) error {
	if r.del {
		return m.Delete(r.id)
	}
	return m.Insert(r.id, r.at)
}

// churn performs one adversarial op on nw: a delete of a uniformly
// sampled node, or an insert of a fresh id at a sampled node.
func churn(nw *dex.Network, rng *rand.Rand, del bool) (rec, error) {
	if del {
		r := rec{del: true, id: nw.SampleNode(rng)}
		return r, nw.Delete(r.id)
	}
	r := rec{id: nw.FreshID(), at: nw.SampleNode(rng)}
	return r, nw.Insert(r.id, r.at)
}

// env is a set-up network ready for the measured phase.
type env struct {
	c       *dex.Concurrent
	writer  *rand.Rand
	warm    []rec // warm-up ops, kept only when tracing
	dir     string
	warmDir string // durable + trace: the directory as warm-up left it
	settled bool
}

func (e *env) close() {
	if e.c != nil {
		e.c.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
	if e.warmDir != "" {
		os.RemoveAll(e.warmDir)
	}
}

// settle churns delete+insert pairs until the state is stationary:
// over each of the last two windows of n/4 pairs the arena's live
// cells moved by less than 0.25% and rounds per op by less than 2%.
// Messages per op are no signal: they carry the coordinator's degree,
// which wanders with its load long after the mapping has settled.
// The test reads only deterministic counters, so the warm-up length is
// a function of the seed.
func settle(n int, pair func() error, probe func() (live int, rounds int64, steps int)) (bool, error) {
	win := max(64, n/4)
	minPairs, maxPairs := 2*n, 12*n
	live, rounds, steps := probe()
	calm := 0
	prevRate := -1.0
	for done := 0; done < maxPairs; {
		for i := 0; i < win; i++ {
			if err := pair(); err != nil {
				return false, err
			}
		}
		done += win
		l, r, s := probe()
		rate := float64(r-rounds) / float64(max(1, s-steps))
		dl := relDiff(float64(l), float64(live))
		if dl < 0.0025 && prevRate > 0 && relDiff(rate, prevRate) < 0.02 {
			calm++
		} else {
			calm = 0
		}
		live, rounds, steps, prevRate = l, r, s, rate
		if calm >= 2 && done >= minPairs {
			return true, nil
		}
	}
	return false, nil
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	d := (a - b) / b
	if d < 0 {
		d = -d
	}
	return d
}

// setup builds the workload's network and warms it up. It is what
// setup_s times.
func setup(cf *config, k int) (*env, error) {
	e := &env{writer: rand.New(rand.NewSource(cf.seed*7919 + 17))}
	keep := func(r rec) {
		if cf.trace {
			e.warm = append(e.warm, r)
		}
	}
	pairOn := func(nw *dex.Network) error {
		for _, del := range []bool{true, false} {
			r, err := churn(nw, e.writer, del)
			if err != nil {
				return err
			}
			keep(r)
		}
		return nil
	}
	probeOn := func(nw *dex.Network) (int, int64, int) {
		t := nw.Totals()
		return nw.Graph().Stats().LiveCells, t.Rounds, t.Steps
	}

	if cf.w.durable {
		e.dir = filepath.Join(cf.work, fmt.Sprintf("%s-%d-%d", cf.w.name, cf.seed, k))
		os.RemoveAll(e.dir)
		// Warm up single-threaded without fsync or automatic
		// checkpoints, then seal the state with one checkpoint; the
		// measured network reopens it with the user configuration.
		nw, err := dex.New(cf.opts(dex.WithPersistence(e.dir, dex.WithNoSync(true), dex.WithCheckpointEvery(-1)))...)
		if err != nil {
			return nil, err
		}
		e.settled, err = settle(cf.w.n, func() error { return pairOn(nw) }, func() (int, int64, int) { return probeOn(nw) })
		if err == nil {
			err = nw.Checkpoint()
		}
		if cerr := nw.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("durable warm-up: %w", err)
		}
		if cf.trace {
			e.warmDir = e.dir + ".warm"
			if err := copyDir(e.dir, e.warmDir); err != nil {
				return nil, err
			}
		}
		e.c, err = dex.NewConcurrent(cf.opts(dex.WithPersistence(e.dir, dex.WithGroupCommit(32)))...)
		if err != nil {
			return nil, fmt.Errorf("durable reopen: %w", err)
		}
		return e, nil
	}

	c, err := dex.NewConcurrent(cf.opts()...)
	if err != nil {
		return nil, err
	}
	e.c = c
	if cf.w.cycles() {
		// One full cycle up and down, so the arena and free lists have
		// seen the sizes the measured cycles will visit.
		err = c.Do(func(nw *dex.Network) error {
			for nw.Size() < cf.w.n {
				r, err := churn(nw, e.writer, false)
				if err != nil {
					return err
				}
				keep(r)
			}
			for nw.Size() > cf.w.lo {
				r, err := churn(nw, e.writer, true)
				if err != nil {
					return err
				}
				keep(r)
			}
			return nil
		})
		e.settled = true
	} else {
		e.settled, err = settle(cf.w.n,
			func() error { return c.Do(pairOn) },
			func() (l int, r int64, s int) {
				c.Do(func(nw *dex.Network) error { l, r, s = probeOn(nw); return nil })
				return
			})
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

// measured is what the measured phase observed.
type measured struct {
	opLat     []float64 // µs per mutating op, call to return
	readLat   []float64 // µs per read, from its due time
	late      []float64 // µs the reader issued each read after it was due
	attempted int
	failed    int
	elapsed   time.Duration

	mirror *graph.Graph // the subscriber's replica of the overlay
	events int
	costs  costs

	// Trace only.
	ops        []rec
	steps      []dex.StepMetrics
	traced     []bool // op i ran inside a traced block
	opSpan     []int32
	allocs     []float64 // heap objects allocated across each traced op
	deltas     []dex.EdgeDelta
	targets    []int64 // moduli the rebuilds moved to
	startSnap  *graph.Graph
	startStats graph.ArenaStats
}

// costs accumulates the paper's per-op costs over the measured steps.
// They are exact for a seed.
type costs struct {
	steps, msgs, rounds, topo, roundsMax, topoMax int
}

func (c *costs) add(s dex.StepMetrics) {
	c.steps++
	c.msgs += s.Messages
	c.rounds += s.Rounds
	c.topo += s.TopologyChanges
	c.roundsMax = max(c.roundsMax, s.Rounds)
	c.topoMax = max(c.topoMax, s.TopologyChanges)
}

func (c *costs) report(out map[string]float64) {
	n := float64(max(1, c.steps))
	out["msgs_per_op"] = float64(c.msgs) / n
	out["rounds_per_op"] = float64(c.rounds) / n
	out["topo_per_op"] = float64(c.topo) / n
	out["rounds_max"] = float64(c.roundsMax)
	out["topo_max"] = float64(c.topoMax)
}

// traceBlock is the length of the alternating traced / untraced
// blocks in a traced run; comparing them gives trace.overhead.
const traceBlock = 256

func allocCount(s []metrics.Sample) float64 {
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// measure runs the measured phase: one closed-loop writer goroutine
// (this one) and one open-loop reader goroutine.
func measure(cf *config, e *env, rc *recorder) (*measured, error) {
	m := &measured{}
	c := e.c
	var snapErr error
	c.Do(func(nw *dex.Network) error {
		m.mirror = nw.Graph().Clone()
		if cf.trace {
			m.startSnap = nw.Graph().Clone()
			m.startStats = nw.Graph().Stats()
		}
		return nil
	})
	cancel := c.Subscribe(func(ev dex.Event) {
		m.events++
		switch ev := ev.(type) {
		case dex.EdgesChanged:
			if err := applyDeltas(m.mirror, ev.Deltas); err != nil && snapErr == nil {
				snapErr = err
			}
			if cf.trace {
				m.deltas = append(m.deltas, ev.Deltas...)
			}
		case dex.GraphRebuilt:
			if cf.trace {
				m.targets = append(m.targets, ev.NewP)
			}
		}
	})
	defer cancel()

	k := cf.measuredOps()
	m.opLat = make([]float64, 0, k)
	if cf.trace {
		m.ops = make([]rec, 0, k)
		m.steps = make([]dex.StepMetrics, 0, k)
		m.traced = make([]bool, 0, k)
		m.opSpan = make([]int32, 0, k)
	}
	size := 0
	c.Do(func(nw *dex.Network) error { size = nw.Size(); return nil })

	// The reader records into its own recorder; it is merged once both
	// goroutines are done.
	rr := &recorder{origin: rc.origin}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if cf.w.durable {
		wg.Add(1)
		go func() {
			defer wg.Done()
			readLoop(cf, c, m, rr, stop)
		}()
	}

	alloc := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	growing := true
	start := time.Now()
	for i := 0; i < k; i++ {
		var del bool
		if cf.w.cycles() {
			if growing && size >= cf.w.n {
				growing = false
			} else if !growing && size <= cf.w.lo {
				growing = true
			}
			del = !growing
		} else {
			del = i%2 == 0
		}
		fail := cf.failEvery > 0 && (i+1)%cf.failEvery == 0
		traced := cf.trace && (i/traceBlock)%2 == 0
		var r rec
		var step dex.StepMetrics
		var tb int64
		body := func(nw *dex.Network) error {
			if traced {
				tb = rc.now()
			}
			if fail {
				return nw.Delete(-1)
			}
			var err error
			r, err = churn(nw, e.writer, del)
			if err == nil {
				err = nw.Audit(dex.AuditSampled)
			}
			step = nw.LastStep()
			return err
		}
		var a0 float64
		var t0 int64
		if traced {
			a0 = allocCount(alloc)
			t0 = rc.now()
		}
		s := time.Now()
		err := c.Do(body)
		m.opLat = append(m.opLat, us(time.Since(s)))
		m.attempted++
		if err != nil {
			m.failed++
			if !fail {
				// A rejected op changes nothing; anything else leaves
				// the network in a state the replays cannot follow.
				fmt.Fprintf(os.Stderr, "op %d failed: %v\n", i, err)
			}
			continue
		}
		if del {
			size--
		} else {
			size++
		}
		m.costs.add(step)
		if cf.trace {
			span := int32(-1)
			if traced {
				t1 := rc.now()
				m.allocs = append(m.allocs, allocCount(alloc)-a0)
				span = rc.add("dex.op", t0, t1, -1, int64(len(m.ops)))
				rc.add("dex.lock_wait", t0, tb, span, int64(len(m.ops)))
			}
			m.ops = append(m.ops, r)
			m.steps = append(m.steps, step)
			m.traced = append(m.traced, traced)
			m.opSpan = append(m.opSpan, span)
		}
	}
	m.elapsed = time.Since(start)
	close(stop)
	wg.Wait()
	rc.merge(rr)
	if snapErr != nil {
		return m, fmt.Errorf("subscriber mirror: %w", snapErr)
	}
	return m, nil
}

// readLoop issues reads on a fixed schedule, whatever the writer is
// doing, until stop closes. Each read's latency runs from the time it
// was due, so a stall also charges the reads queued behind it.
func readLoop(cf *config, c *dex.Concurrent, m *measured, rc *recorder, stop <-chan struct{}) {
	interval := time.Second / time.Duration(cf.readRate)
	rng := rand.New(rand.NewSource(cf.seed ^ 0x7ead))
	var last dex.NodeID
	start := time.Now()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		issued := time.Now()
		if cf.trace {
			// Through Do, so the wait for the façade lock is a span.
			t0 := rc.now()
			var tb int64
			c.Do(func(nw *dex.Network) error {
				tb = rc.now()
				switch {
				case i%cf.snapshotEvery == cf.snapshotEvery-1:
					nw.Graph().Snapshot()
				case i%3 == 0:
					last = nw.SampleNode(rng)
				case i%3 == 1:
					nw.Load(last)
				default:
					nw.Totals()
				}
				return nil
			})
			t1 := rc.now()
			rc.add("dex.lock_wait", t0, tb, rc.add("dex.read", t0, t1, -1, -1), -1)
		} else {
			switch {
			case i%cf.snapshotEvery == cf.snapshotEvery-1:
				c.Snapshot()
			case i%3 == 0:
				last = c.Sample()
			case i%3 == 1:
				c.Load(last)
			default:
				c.Totals()
			}
		}
		m.late = append(m.late, us(issued.Sub(due)))
		m.readLat = append(m.readLat, us(time.Since(due)))
	}
}

// applyDeltas replays one EdgesChanged batch onto a replica graph.
func applyDeltas(g *graph.Graph, ds []dex.EdgeDelta) error {
	for _, d := range ds {
		switch {
		case d.Delta > 0:
			g.AddEdgeMult(d.U, d.V, d.Delta)
		case d.Delta < 0:
			if got := g.RemoveEdgeMult(d.U, d.V, -d.Delta); got != -d.Delta {
				return fmt.Errorf("delta removes %d of edge {%d,%d}, replica had %d", -d.Delta, d.U, d.V, got)
			}
		default:
			return fmt.Errorf("zero delta for edge {%d,%d}", d.U, d.V)
		}
	}
	return nil
}

// sameEdges compares the edge multisets of two graphs. Nodes without
// edges are ignored: a replica built from edge deltas keeps the ids of
// deleted nodes as isolated vertices.
func sameEdges(a, b *graph.Graph) error {
	if a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("%d edges against %d", a.NumEdges(), b.NumEdges())
	}
	for _, pair := range [][2]*graph.Graph{{a, b}, {b, a}} {
		x, y := pair[0], pair[1]
		for _, u := range x.Nodes() {
			if x.Degree(u) != y.Degree(u) {
				return fmt.Errorf("node %d: degree %d against %d", u, x.Degree(u), y.Degree(u))
			}
			var bad error
			x.ForEachNeighbor(u, func(v graph.NodeID, mult int) bool {
				if got := y.Multiplicity(u, v); got != mult {
					bad = fmt.Errorf("edge {%d,%d}: multiplicity %d against %d", u, v, mult, got)
				}
				return bad == nil
			})
			if bad != nil {
				return bad
			}
		}
	}
	return nil
}

// check runs the end-of-run correctness checks shared by both modes.
func check(c *dex.Concurrent, m *measured) error {
	if err := c.CheckInvariants(); err != nil {
		return fmt.Errorf("CheckInvariants: %w", err)
	}
	err := c.Do(func(nw *dex.Network) error {
		if err := sameEdges(nw.Graph(), nw.RecomputeGraph()); err != nil {
			return fmt.Errorf("Graph() differs from RecomputeGraph(): %w", err)
		}
		if err := sameEdges(m.mirror, nw.Graph()); err != nil {
			return fmt.Errorf("subscriber replica differs from the overlay: %w", err)
		}
		return nil
	})
	return err
}

// heapPerNode is the live heap after a full collection, per node.
func heapPerNode(c *dex.Concurrent) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / float64(c.Size())
}

// reopen closes the durable network and times reopening copies of its
// directory until each serves its first op, checking that every
// reopened history root matches the one taken before Close.
func reopen(cf *config, e *env) ([]float64, error) {
	want, steps := e.c.LastRoot()
	err := e.c.Close()
	e.c = nil
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	var times []float64
	for i := 0; i < cf.reopens; i++ {
		dir := fmt.Sprintf("%s.reopen%d", e.dir, i)
		if err := copyDir(e.dir, dir); err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cf.seed + int64(i)))
		t := time.Now()
		c, err := dex.NewConcurrent(cf.opts(dex.WithPersistence(dir, dex.WithGroupCommit(32)))...)
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("reopen: %w", err)
		}
		got, gotSteps := c.LastRoot()
		err = c.Do(func(nw *dex.Network) error { return nw.Delete(nw.SampleNode(rng)) })
		times = append(times, time.Since(t).Seconds())
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("first op after reopen: %w", err)
		}
		if got != want || gotSteps != steps {
			return nil, fmt.Errorf("reopened root %x at step %d, want %x at step %d", got[:8], gotSteps, want[:8], steps)
		}
	}
	return times, nil
}

func copyDir(src, dst string) error {
	os.RemoveAll(dst)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of the files in dir whose names start with
// prefix.
func dirBytes(dir, prefix string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, ent := range ents {
		if len(ent.Name()) < len(prefix) || ent.Name()[:len(prefix)] != prefix {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}
