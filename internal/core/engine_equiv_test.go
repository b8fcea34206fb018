package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/congest"
	"repro/internal/graph"
)

// TestWalkFastPathMatchesEngineOnOverlay is the fidelity bridge promised
// in README.md: the direct token walk the maintainer uses for type-1
// recovery behaves identically - same endpoint, same hit flag, same step
// count (= messages = rounds) - to the goroutine message-passing
// execution on the live DEX overlay graph.
func TestWalkFastPathMatchesEngineOnOverlay(t *testing.T) {
	nw := mustNew(t, 24, DefaultConfig())
	churnQuiet(t, nw, 60)
	g := nw.Graph()
	stop := func(u graph.NodeID, _ int32) bool { return nw.Load(u) >= 2 }
	start := nw.Nodes()[0]
	for seed := uint64(1); seed <= 30; seed++ {
		d := congest.RandomWalkDirect(g, start, -1, nw.walkLen(), seed, stop)
		e := congest.NewEngine(g)
		w := congest.RandomWalkEngine(e, start, -1, nw.walkLen(), seed, stop)
		if d != w {
			t.Fatalf("seed %d: direct %+v vs engine %+v", seed, d, w)
		}
	}
}

// TestFloodMatchesCounters checks that Algorithm 4.4's flood, executed as
// a real message-passing protocol on the overlay, reports exactly the
// coordinator's |Spare| counter.
func TestFloodMatchesCounters(t *testing.T) {
	nw := mustNew(t, 24, DefaultConfig())
	churnQuiet(t, nw, 80)
	agg := congest.FloodAggregate(nw.Graph(), nw.Coordinator(), func(u graph.NodeID) int64 {
		if nw.Load(u) >= 2 {
			return 1
		}
		return 0
	})
	if int(agg.Sum) != nw.SpareCount() {
		t.Fatalf("flooded |Spare| = %d, counter = %d", agg.Sum, nw.SpareCount())
	}
	if int(agg.Count) != nw.Size() {
		t.Fatalf("flooded n = %d, actual = %d", agg.Count, nw.Size())
	}
}

func churnQuiet(t testing.TB, nw *Network, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < steps; i++ {
		nodes := nw.Nodes()
		if rng.Float64() < 0.5 || nw.Size() <= 6 {
			if err := nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))]); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := nw.Delete(nodes[rng.Intn(len(nodes))]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// --- differential oracle -------------------------------------------------------
//
// The incremental real-graph maintenance must be indistinguishable from
// recomputing the contraction from scratch after every operation. The
// helpers below are the reusable oracle: the fuzz target, the randomized
// trace tests, and the scale tests all drive churn through them.

// checkDifferentialState compares the incrementally maintained real
// graph against the full-rebuild oracle and runs the sampled audit (the
// o(n) tier must agree with the ground truth whenever the state is
// healthy).
func checkDifferentialState(nw *Network) error {
	if err := graphsEqual(nw.real, nw.expectedRealGraph()); err != nil {
		return fmt.Errorf("incremental real graph diverged from full rebuild: %w", err)
	}
	if err := nw.Audit(AuditSampled); err != nil {
		return fmt.Errorf("sampled audit disagrees with healthy state: %w", err)
	}
	return nil
}

// checkEveryNode runs the node-local audit on the whole network,
// validating wantRow against the live graph for every node (including
// mid-rebuild states with intermediate edges).
func checkEveryNode(nw *Network) error {
	for _, u := range nw.Nodes() {
		if err := nw.CheckNode(u); err != nil {
			return err
		}
	}
	return nil
}

// traceStep performs one randomized operation - single insert/delete or
// a batch - against nw, mirroring the adversarial op mix the public
// harness generates.
func traceStep(nw *Network, rng *rand.Rand) error {
	nodes := nw.Nodes()
	r := rng.Float64()
	switch {
	case r < 0.50 || nw.Size() <= 6:
		return nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))])
	case r < 0.85:
		return nw.Delete(nodes[rng.Intn(len(nodes))])
	case r < 0.93:
		k := 1 + rng.Intn(4)
		specs := make([]InsertSpec, k)
		for j := range specs {
			specs[j] = InsertSpec{ID: nw.FreshID(), Attach: nodes[(rng.Intn(len(nodes))+j)%len(nodes)]}
		}
		return nw.InsertBatch(specs)
	default:
		k := 1 + rng.Intn(3)
		perm := rng.Perm(len(nodes))
		victims := make([]NodeID, 0, k)
		for _, i := range perm[:k] {
			victims = append(victims, nodes[i])
		}
		err := nw.DeleteBatch(victims)
		if err != nil && nw.Size() > 4 {
			// Model-illegal batches (disconnection, no surviving
			// neighbor, too small) are legitimately rejected; the state
			// must be untouched, which the caller's oracle check proves.
			return nil
		}
		return err
	}
}

// TestDifferentialChurnTraces replays randomized churn traces -
// single ops, batches, staggered and simplified rebuilds - asserting
// after every operation that the incremental real graph is identical to
// a shadow full rebuild, and periodically that every node-local audit
// and the exhaustive invariant check agree.
func TestDifferentialChurnTraces(t *testing.T) {
	for _, mode := range []RecoveryMode{Staggered, Simplified} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", mode, seed), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Mode = mode
				cfg.Seed = seed
				nw := mustNew(t, 12, cfg)
				rng := rand.New(rand.NewSource(seed * 101))
				for i := 0; i < 300; i++ {
					if err := traceStep(nw, rng); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					if err := checkDifferentialState(nw); err != nil {
						t.Fatalf("op %d (%s): %v", i, nw.RebuildDebug(), err)
					}
					if i%10 == 0 {
						if err := checkEveryNode(nw); err != nil {
							t.Fatalf("op %d (%s): %v", i, nw.RebuildDebug(), err)
						}
						if err := nw.CheckInvariants(); err != nil {
							t.Fatalf("op %d: %v", i, err)
						}
					}
				}
				if err := nw.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// equalEngineState fails the test unless the two networks are in
// byte-identical externally observable states: mapping, loads, vertex
// sets, overlay edges, modulus, and per-step metrics history. It is
// backend-agnostic (the snapshots materialize either store).
func equalEngineState(t *testing.T, tag string, a, b *Network) {
	t.Helper()
	if a.P() != b.P() || a.Size() != b.Size() {
		t.Fatalf("%s: shape diverged: p %d vs %d, n %d vs %d", tag, a.P(), b.P(), a.Size(), b.Size())
	}
	if !reflect.DeepEqual(a.simOf, b.simOf) {
		t.Fatalf("%s: virtual mapping diverged", tag)
	}
	if !reflect.DeepEqual(a.st.loadSnapshot(), b.st.loadSnapshot()) {
		t.Fatalf("%s: load tables diverged", tag)
	}
	if !reflect.DeepEqual(a.st.simSnapshot(), b.st.simSnapshot()) {
		t.Fatalf("%s: vertex sets diverged", tag)
	}
	if !reflect.DeepEqual(a.real.Edges(), b.real.Edges()) {
		t.Fatalf("%s: overlay edge multisets diverged", tag)
	}
	if !reflect.DeepEqual(a.History(), b.History()) {
		ah, bh := a.History(), b.History()
		for i := range ah {
			if i < len(bh) && ah[i] != bh[i] {
				t.Fatalf("%s: history diverged at step %d:\nfirst:  %+v\nsecond: %+v", tag, i+1, ah[i], bh[i])
			}
		}
		t.Fatalf("%s: history lengths diverged: %d vs %d", tag, len(ah), len(bh))
	}
}

// TestDenseMatchesMapOracle is the store-swap safety gate, mirroring
// how PR 3 gated the graph arena against graph.Ref: the dense
// slot-indexed store and the historical map store must be externally
// indistinguishable — byte-identical History, virtual mapping, loads,
// vertex sets, and overlay — through growth, deletion storms, batches,
// and both rebuild modes, with the per-operation audit tiers running on
// both engines throughout. The workers=N arms start both engines with
// the N-1 pre-drawn walk seeds a checkpoint of an N-wide walk pool
// could carry (see predrawPending), so the seed-queue drain runs under
// the oracle too; each arm keeps its historical trace seed 19+N.
func TestDenseMatchesMapOracle(t *testing.T) {
	for _, mode := range []RecoveryMode{Staggered, Simplified} {
		for _, workers := range []int{1, 4, 8} {
			for _, audit := range []AuditMode{AuditOff, AuditSampled, AuditFull} {
				if audit == AuditFull && workers == 4 {
					continue // full audit is O(p) per op; two widths suffice
				}
				t.Run(fmt.Sprintf("%v/workers=%d/audit=%v", mode, workers, audit), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Mode = mode
					cfg.Seed = int64(19 + workers)
					dense, err := New(32, cfg)
					if err != nil {
						t.Fatal(err)
					}
					cfgM := cfg
					cfgM.useMapState = true
					oracle, err := New(32, cfgM)
					if err != nil {
						t.Fatal(err)
					}
					predrawPending(dense, workers-1)
					predrawPending(oracle, workers-1)
					rngD := rand.New(rand.NewSource(cfg.Seed * 31))
					rngM := rand.New(rand.NewSource(cfg.Seed * 31))
					steps := 220
					if audit == AuditFull {
						steps = 120
					}
					for i := 0; i < steps; i++ {
						errD := traceStep(dense, rngD)
						errM := traceStep(oracle, rngM)
						if (errD == nil) != (errM == nil) {
							t.Fatalf("op %d: errors diverged: %v vs %v", i, errD, errM)
						}
						if dense.LastStep() != oracle.LastStep() {
							t.Fatalf("op %d: metrics diverged:\ndense:  %+v\noracle: %+v", i, dense.LastStep(), oracle.LastStep())
						}
						if err := dense.Audit(audit); err != nil {
							t.Fatalf("op %d: dense audit: %v", i, err)
						}
						if err := oracle.Audit(audit); err != nil {
							t.Fatalf("op %d: oracle audit: %v", i, err)
						}
					}
					equalEngineState(t, "after oracle churn", dense, oracle)
					if err := dense.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestDirtySetBoundedOnType1Steps asserts the tentpole's o(p) claim at
// the mechanism level: an operation that triggers no rebuild commit
// dirties O(zeta * operation footprint) nodes, independent of n and p.
func TestDirtySetBoundedOnType1Steps(t *testing.T) {
	cfg := DefaultConfig()
	nw := mustNew(t, 64, cfg)
	rng := rand.New(rand.NewSource(17))
	bound := 64 * cfg.Zeta // generous constant envelope, still ≪ p
	for i := 0; i < 400; i++ {
		nodes := nw.Nodes()
		var err error
		if rng.Float64() < 0.5 || nw.Size() <= 6 {
			err = nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))])
		} else {
			err = nw.Delete(nodes[rng.Intn(len(nodes))])
		}
		if err != nil {
			t.Fatal(err)
		}
		st := nw.LastStep()
		if active, _ := nw.Rebuilding(); active || st.StaggerActive || st.Recovery != RecoveryType1 {
			continue // rebuild steps may legitimately touch more
		}
		if got := nw.st.dirtyCount(); got > bound {
			t.Fatalf("step %d: type-1 op dirtied %d nodes (> %d) at n=%d p=%d",
				i, got, bound, nw.Size(), nw.P())
		}
	}
}

// Property: arbitrary operation sequences preserve all invariants, in
// both recovery modes (testing/quick drives the op mix and seeds).
func TestInvariantsQuick(t *testing.T) {
	f := func(seed int64, insertBias uint8) bool {
		cfg := DefaultConfig()
		if seed%2 == 0 {
			cfg.Mode = Simplified
		}
		cfg.Seed = seed
		nw, err := New(12, cfg)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		p := 0.2 + float64(insertBias%60)/100.0 // insert prob in [0.2, 0.8)
		for i := 0; i < 120; i++ {
			nodes := nw.Nodes()
			if rng.Float64() < p || nw.Size() <= 6 {
				if nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))]) != nil {
					return false
				}
			} else {
				if nw.Delete(nodes[rng.Intn(len(nodes))]) != nil {
					return false
				}
			}
			if i%7 == 0 && nw.CheckInvariants() != nil {
				return false
			}
		}
		return nw.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
