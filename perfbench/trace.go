package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime/metrics"
	"time"

	"repro/dex"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pcycle"
	"repro/internal/spectral"
)

// walkHops is how many seeded hops graph.walk_hop_ns averages over.
const walkHops = 1 << 21

// layers replays the measured phase's recorded op trace at each layer
// and fills the per-layer metrics into out. final is a snapshot of the
// overlay at the end of the measured phase.
func layers(cf *config, e *env, m *measured, final *graph.Graph, rc *recorder, out map[string]float64) error {
	ops := float64(len(m.ops))
	if ops == 0 {
		return fmt.Errorf("trace: no successful ops to replay")
	}

	// graph: the subscriber's delta stream into a bare replica.
	g := m.startSnap
	t := time.Now()
	if err := applyDeltas(g, m.deltas); err != nil {
		return fmt.Errorf("graph replay: %w", err)
	}
	out["graph.apply_ns_per_delta"] = float64(time.Since(t)) / float64(max(1, len(m.deltas)))
	if err := sameEdges(g, final); err != nil {
		return fmt.Errorf("graph replay differs from the overlay: %w", err)
	}
	out["graph.deltas_per_op"] = float64(len(m.deltas)) / ops
	out["graph.walk_hop_ns"] = walkHopNs(final, cf.seed)

	var st graph.ArenaStats
	e.c.Do(func(nw *dex.Network) error { st = nw.Graph().Stats(); return nil })
	out["graph.live_cells_per_node"] = float64(st.LiveCells) / float64(st.Nodes)
	out["graph.free_cell_ratio"] = float64(st.FreeCells) / float64(max(1, st.PoolLen))
	out["graph.live_cells_drift"] = float64(st.LiveCells-m.startStats.LiveCells) / float64(m.startStats.LiveCells)

	// pcycle: construction of every modulus a rebuild moved to.
	var builds []float64
	for _, p := range m.targets {
		t := time.Now()
		if _, err := pcycle.New(p); err != nil {
			return fmt.Errorf("pcycle.New(%d): %w", p, err)
		}
		builds = append(builds, float64(time.Since(t))/1e6)
	}
	out["pcycle.build_ms"] = median(builds)

	out["spectral_gap"] = spectral.GapIterative(final)

	if err := coreReplay(cf, e, m, rc, out); err != nil {
		return err
	}

	// dex: what the façade adds around the engine and its audit.
	var opTime, selfTime, allocs float64
	for _, i := range tracedOps(m) {
		opTime += float64(rc.spans[m.opSpan[i]].dur())
	}
	for _, s := range rc.selfTimes("dex.op") {
		selfTime += s
	}
	for _, a := range m.allocs {
		allocs += a
	}
	traced := float64(len(m.allocs))
	out["dex.self_us"] = selfTime / traced / 1e3
	out["dex.allocs_per_op"] = allocs / traced
	out["dex.events_per_op"] = float64(m.events) / ops
	waits := sortedCopy(rc.durations("dex.lock_wait"))
	out["dex.lock_wait_p50_us"], _ = quantile(waits, 0.5)
	out["dex.lock_wait_p50_us"] /= 1e3
	out["dex.lock_wait_p99_us"], _ = quantile(waits, 0.99)
	out["dex.lock_wait_p99_us"] /= 1e3
	out["core.share"] /= opTime
	out["core.audit_share"] /= opTime

	// trace.overhead: the traced blocks' op spans against the untraced
	// blocks between them: same run, same state evolution.
	var off []float64
	for i, lat := range m.opLat {
		if (i/traceBlock)%2 == 1 {
			off = append(off, lat)
		}
	}
	out["trace.overhead"] = median(rc.durations("dex.op"))/1e3/median(off) - 1

	if cf.w.durable {
		return persistReplay(cf, e, m, out)
	}
	for _, k := range []string{"persist.self_us", "persist.wal_bytes_per_op", "persist.checkpoint_bytes", "persist.checkpoint_ms", "persist.replay_ops_per_s"} {
		out[k] = 0
	}
	return nil
}

func tracedOps(m *measured) []int {
	var idx []int
	for i, t := range m.traced {
		if t {
			idx = append(idx, i)
		}
	}
	return idx
}

// walkSink keeps the timed walks from being optimized away.
var walkSink graph.NodeID

// walkHopNs times seeded slot-native random walks over g.
func walkHopNs(g *graph.Graph, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x3a1c))
	const walkLen = 64
	t := time.Now()
	for done := 0; done < walkHops; {
		s := int32(rng.Intn(g.Slots()))
		if _, ok := g.NodeAt(s); !ok {
			continue
		}
		for h := 0; h < walkLen; h++ {
			v, vs, ok := g.RandomNeighborStepAt(s, -1, rng.Uint64())
			if !ok {
				break
			}
			walkSink += v
			s = vs
		}
		done += walkLen
	}
	return float64(time.Since(t)) / walkHops
}

// coreConfig is the engine configuration the façade builds from
// config.opts.
func coreConfig(cf *config) core.Config {
	c := core.DefaultConfig()
	c.Seed = cf.seed
	c.Mode = core.Staggered
	c.Zeta = 8
	c.HistoryCap = historyCap
	return c
}

// coreReplay rebuilds the measured phase's starting state on a bare
// engine from the warm-up trace, then replays every measured op with
// its sampled audit, timing each as its own span and checking that the
// engine reproduces the facade's step metrics exactly.
func coreReplay(cf *config, e *env, m *measured, rc *recorder, out map[string]float64) error {
	eng, err := core.New(cf.w.initialSize(), coreConfig(cf))
	if err != nil {
		return err
	}
	defer eng.Close()
	for i, r := range e.warm {
		if err := r.apply(eng); err != nil {
			return fmt.Errorf("core replay: warm-up op %d: %w", i, err)
		}
	}
	alloc := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	fast0 := eng.FastInserts()
	var opLat, auditLat, type2, stagger []float64
	var coreTraced, auditTraced, auditAllocs float64
	var retries, floods, inserts, staggered, rebuilds int
	for i, r := range m.ops {
		t0 := rc.now()
		err := r.apply(eng)
		t1 := rc.now()
		if err != nil {
			return fmt.Errorf("core replay: op %d: %w", i, err)
		}
		st := eng.LastStep()
		if st != m.steps[i] {
			return fmt.Errorf("core replay: op %d step metrics %+v, facade recorded %+v", i, st, m.steps[i])
		}
		a0 := allocCount(alloc)
		t2 := rc.now()
		err = eng.Audit(core.AuditSampled)
		t3 := rc.now()
		auditAllocs += allocCount(alloc) - a0
		if err != nil {
			return fmt.Errorf("core replay: audit after op %d: %w", i, err)
		}
		rc.add("core.op", t0, t1, m.opSpan[i], int64(i))
		rc.add("core.audit", t2, t3, m.opSpan[i], int64(i))
		d := float64(t1-t0) / 1e3
		opLat = append(opLat, d)
		auditLat = append(auditLat, float64(t3-t2)/1e3)
		if m.traced[i] {
			coreTraced += float64(t1 - t0)
			auditTraced += float64(t3 - t2)
		}
		if st.Recovery != core.RecoveryType1 {
			type2 = append(type2, d)
		}
		if st.StaggerActive {
			stagger = append(stagger, d)
			staggered++
		}
		if st.StaggerFinished {
			rebuilds++
		}
		if !r.del {
			inserts++
		}
		retries += st.WalkRetries
		floods += st.Floods
	}
	n := float64(len(m.ops))
	opLat, auditLat = sortedCopy(opLat), sortedCopy(auditLat)
	type2, stagger = sortedCopy(type2), sortedCopy(stagger)
	out["core.op_p50_us"], _ = quantile(opLat, 0.5)
	out["core.op_p99_us"], _ = quantile(opLat, 0.99)
	out["core.share"] = coreTraced // divided by the facade op time later
	out["core.walk_retries_per_op"] = float64(retries) / n
	out["core.floods_per_op"] = float64(floods) / n
	out["core.fast_insert_share"] = float64(eng.FastInserts()-fast0) / float64(max(1, inserts))
	out["core.audit_p50_us"], _ = quantile(auditLat, 0.5)
	out["core.audit_share"] = auditTraced
	out["core.audit_allocs_per_op"] = auditAllocs / n
	out["core.type2_step_p99_us"], _ = quantile(type2, 0.99)
	out["core.stagger_step_p50_us"], _ = quantile(stagger, 0.5)
	out["core.stagger_step_p99_us"], _ = quantile(stagger, 0.99)
	out["core.stagger_share"] = float64(staggered) / n
	out["core.rebuilds"] = float64(rebuilds)
	fmt.Printf("core replay: %d ops, %d type-2 steps, %d stagger steps, %d rebuilds\n", len(m.ops), len(type2), len(stagger), rebuilds)
	return nil
}

// persistReplay measures the durability layer on durable: the measured
// trace replayed on a plain network and on a persistent one reopened
// from the warm-up directory, then WAL size, checkpoint cost and WAL
// replay speed.
func persistReplay(cf *config, e *env, m *measured, out map[string]float64) error {
	plain, err := dex.New(cf.opts()...)
	if err != nil {
		return err
	}
	for i, r := range e.warm {
		if err := r.apply(plain); err != nil {
			return fmt.Errorf("plain replay: warm-up op %d: %w", i, err)
		}
	}
	without, err := timeReplay(plain, m.ops)
	if err != nil {
		return fmt.Errorf("plain replay: %w", err)
	}

	dir := e.warmDir + ".wal"
	defer os.RemoveAll(dir)
	if err := copyDir(e.warmDir, dir); err != nil {
		return err
	}
	durable, err := dex.New(cf.opts(dex.WithPersistence(dir, dex.WithGroupCommit(32)))...)
	if err != nil {
		return err
	}
	with, err := timeReplay(durable, m.ops)
	if err != nil {
		durable.Close()
		return fmt.Errorf("persistent replay: %w", err)
	}
	out["persist.self_us"] = with - without
	var ckpt []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if err := durable.Checkpoint(); err != nil {
			durable.Close()
			return err
		}
		ckpt = append(ckpt, float64(time.Since(t))/1e6)
	}
	out["persist.checkpoint_ms"] = median(ckpt)
	if err := durable.Close(); err != nil {
		return err
	}
	b, err := dirBytes(dir, "checkpoint-")
	if err != nil {
		return err
	}
	out["persist.checkpoint_bytes"] = float64(b)

	// WAL bytes and replay speed: log a prefix of the trace without
	// checkpoints, then compare reopening with and without it.
	k := min(len(m.ops), 8192)
	logged := e.warmDir + ".log"
	defer os.RemoveAll(logged)
	if err := copyDir(e.warmDir, logged); err != nil {
		return err
	}
	nw, err := dex.New(cf.opts(dex.WithPersistence(logged, dex.WithNoSync(true), dex.WithCheckpointEvery(-1)))...)
	if err != nil {
		return err
	}
	w0, err := dirBytes(logged, "wal-")
	if err == nil {
		_, err = timeReplay(nw, m.ops[:k])
	}
	if cerr := nw.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal replay: %w", err)
	}
	w1, err := dirBytes(logged, "wal-")
	if err != nil {
		return err
	}
	out["persist.wal_bytes_per_op"] = float64(w1-w0) / float64(k)
	var bare, full []float64
	for i := 0; i < 3; i++ {
		for _, src := range []string{e.warmDir, logged} {
			tmp := src + ".open"
			if err := copyDir(src, tmp); err != nil {
				return err
			}
			t := time.Now()
			nw, err := dex.New(cf.opts(dex.WithPersistence(tmp, dex.WithNoSync(true)))...)
			d := time.Since(t).Seconds()
			if err == nil {
				err = nw.Close()
			}
			os.RemoveAll(tmp)
			if err != nil {
				return fmt.Errorf("reopen for replay: %w", err)
			}
			if src == logged {
				full = append(full, d)
			} else {
				bare = append(bare, d)
			}
		}
	}
	if d := median(full) - median(bare); d > 0 {
		out["persist.replay_ops_per_s"] = float64(k) / d
	} else {
		out["persist.replay_ops_per_s"] = 0
	}
	return nil
}

// timeReplay applies ops to nw and returns the mean µs per op.
func timeReplay(nw *dex.Network, ops []rec) (float64, error) {
	t := time.Now()
	for i, r := range ops {
		if err := r.apply(nw); err != nil {
			return 0, fmt.Errorf("op %d: %w", i, err)
		}
	}
	return us(time.Since(t)) / float64(len(ops)), nil
}
