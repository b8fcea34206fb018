package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// corruptLoad bumps u's stored load behind the engine's back — without
// touching counters, sets, or dirty marks — for audit-detection tests.
func (st *state) corruptLoad(u NodeID, d int) {
	s, ok := st.g.SlotOf(u)
	if !ok {
		panic("corruptLoad: unknown node")
	}
	sh, i := st.shardOf(s)
	sh.load[i] += int32(d)
}

// TestStoreVertexArenaRecycles checks the store's size-class free
// lists: churn at steady degree must reuse arena cells rather than
// growing the pool, and a rebuild's transient big runs must be
// reclaimed (compaction) instead of pinning the high-water mark.
func TestStoreVertexArenaRecycles(t *testing.T) {
	cfg := DefaultConfig()
	nw := mustNew(t, 32, cfg)
	rng := rand.New(rand.NewSource(5))
	churn := func(steps int) {
		for i := 0; i < steps; i++ {
			nodes := nw.Nodes()
			if rng.Float64() < 0.5 || nw.Size() <= 8 {
				if err := nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))]); err != nil {
					t.Fatal(err)
				}
			} else if err := nw.Delete(nodes[rng.Intn(len(nodes))]); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn(600) // crosses several rebuilds
	poolCells := 0
	freeCells := 0
	liveCells := 0
	for _, sh := range nw.st.shards {
		if sh == nil {
			continue
		}
		poolCells += cap(sh.arena.buf)
		freeCells += sh.arena.freeCells
		for i := range sh.sim {
			liveCells += int(sh.sim[i].n + sh.nxt[i].n)
		}
	}
	if liveCells == 0 {
		t.Fatal("no live vertex cells after churn")
	}
	// The pool may round runs up and keep some free-list slack, but it
	// must stay within a small constant of the live vertex count — the
	// compaction and shrink policies cap parked capacity at half the
	// pool plus per-run rounding.
	if poolCells > 4*liveCells+8*shardSlots {
		t.Fatalf("vertex pool holds %d cells for %d live vertices (free %d)", poolCells, liveCells, freeCells)
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreSlotReuseResetsTracking inserts a node into the slot a
// deleted node freed within the same step window and checks dirty /
// spec stamps cannot leak from the dead node to its successor.
func TestStoreSlotReuseResetsTracking(t *testing.T) {
	cfg := DefaultConfig()
	nw := mustNew(t, 16, cfg)
	victim := nw.Nodes()[3]
	slotBefore, _ := nw.real.SlotOf(victim)
	if err := nw.Delete(victim); err != nil {
		t.Fatal(err)
	}
	id := nw.FreshID()
	if err := nw.Insert(id, nw.Nodes()[0]); err != nil {
		t.Fatal(err)
	}
	slotAfter, ok := nw.real.SlotOf(id)
	if !ok {
		t.Fatal("inserted node has no slot")
	}
	if slotAfter != slotBefore {
		t.Skipf("slot %d not recycled to %d on this trace", slotBefore, slotAfter)
	}
	// The fresh node must be tracked as dirty for its own insert step.
	found := false
	nw.st.forEachDirty(func(u NodeID) bool {
		if u == id {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Fatal("fresh node in a recycled slot missing from the dirty set")
	}
	if err := nw.Audit(AuditSampled); err != nil {
		t.Fatal(err)
	}
}

// TestDirtySetCoversStepFootprint checks the set the sampled audit
// re-verifies: after every operation of a seeded trace — single ops,
// batches, and both rebuild modes — each live endpoint of the step's
// EdgesChanged deltas and each live node whose load changed must be
// visited by forEachDirty.
func TestDirtySetCoversStepFootprint(t *testing.T) {
	for _, mode := range []RecoveryMode{Staggered, Simplified} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.Seed = 13
		nw := mustNew(t, 16, cfg)
		var deltas []graph.EdgeDelta
		nw.SetEdgeObserver(func(_ int, ds []graph.EdgeDelta) { deltas = append(deltas, ds...) })
		rng := rand.New(rand.NewSource(41))
		dirty := make(map[NodeID]bool)
		rebuilds := 0
		for i := 0; i < 400; i++ {
			before := nw.st.loadSnapshot()
			deltas = deltas[:0]
			if err := traceStep(nw, rng); err != nil {
				t.Fatalf("%v op %d: %v", mode, i, err)
			}
			if nw.LastStep().Recovery != RecoveryType1 {
				rebuilds++
			}
			clear(dirty)
			nw.st.forEachDirty(func(u NodeID) bool {
				dirty[u] = true
				return true
			})
			require := func(u NodeID, why string) {
				if nw.st.has(u) && !dirty[u] {
					t.Fatalf("%v op %d: node %d (%s) missing from the dirty set", mode, i, u, why)
				}
			}
			for _, d := range deltas {
				require(d.U, "edge endpoint")
				require(d.V, "edge endpoint")
			}
			for u, l := range nw.st.loadSnapshot() {
				if before[u] != l {
					require(u, "load changed")
				}
			}
		}
		if rebuilds == 0 {
			t.Fatalf("%v: trace never reached a type-2 rebuild", mode)
		}
	}
}

// TestCompactionMidStaggerKeepsNewRuns pushes a shard over the arena
// compaction threshold (more than 2048 cells, over half of them free)
// while a staggered rebuild holds live NewSim runs, then requires the
// repacked arena to carry every current and next-cycle run intact —
// through the exhaustive check and on to the rebuild's commit.
func TestCompactionMidStaggerKeepsNewRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mode = Staggered
	nw := mustNew(t, 32, cfg)
	driveToStagger(t, nw, 20000)
	sh := nw.st.shards[0]
	liveNext := func() int {
		live := 0
		for i := range sh.nxt {
			if sh.nxt[i].n > 0 {
				live++
			}
		}
		return live
	}
	rng := rand.New(rand.NewSource(3))
	for liveNext() == 0 {
		if active, _ := nw.Rebuilding(); !active {
			t.Fatal("rebuild committed before any NewSim run went live")
		}
		if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	// Park one big run on the free lists so the pool crosses the
	// threshold, then compact.
	off, got := sh.arena.alloc(4096)
	sh.arena.release(off, got)
	pool := len(sh.arena.buf)
	if pool <= 2048 || 2*sh.arena.freeCells <= pool {
		t.Fatalf("pool %d cells, %d free: below the compaction threshold", pool, sh.arena.freeCells)
	}
	sh.maybeCompact()
	if len(sh.arena.buf) >= pool || sh.arena.freeCells != 0 {
		t.Fatalf("compaction did not run: pool %d -> %d, %d free", pool, len(sh.arena.buf), sh.arena.freeCells)
	}
	if active, _ := nw.Rebuilding(); !active || liveNext() == 0 {
		t.Fatal("compaction no longer runs mid-stagger")
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatalf("after mid-stagger compaction: %v", err)
	}
	for active, _ := nw.Rebuilding(); active; active, _ = nw.Rebuilding() {
		if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatalf("after the rebuild commit: %v", err)
	}
}
