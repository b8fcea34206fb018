package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand"
	"slices"
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

// goldenArm is one seeded trace of TestDenseMatchesMapOracle.
type goldenArm struct {
	name    string
	mode    RecoveryMode
	n0      int
	seed    int64 // engine seed
	trace   int64 // traceStep RNG seed
	predraw int   // walk seeds pre-drawn into the pending queue
	audit   AuditMode
	steps   int
}

// goldenArms lists the pinned traces. The workers=N arms are named
// after the walk-pool widths they were first recorded under: engine
// seed 19+N, with the N-1 pre-drawn walk seeds a checkpoint of an
// N-wide pool could carry (see predrawPending), so the seed-queue
// drain stays pinned too. The churn-seed7 arms are the 16-node,
// 250-step trace of the former store-level churn gate.
func goldenArms() []goldenArm {
	var arms []goldenArm
	for _, mode := range []RecoveryMode{Staggered, Simplified} {
		for _, workers := range []int{1, 4, 8} {
			for _, audit := range []AuditMode{AuditOff, AuditSampled, AuditFull} {
				if audit == AuditFull && workers == 4 {
					continue // full audit is O(p) per op; two widths suffice
				}
				steps := 220
				if audit == AuditFull {
					steps = 120
				}
				seed := int64(19 + workers)
				arms = append(arms, goldenArm{
					name: fmt.Sprintf("%v/workers=%d/audit=%v", mode, workers, audit),
					mode: mode, n0: 32, seed: seed, trace: seed * 31,
					predraw: workers - 1, audit: audit, steps: steps,
				})
			}
		}
		arms = append(arms, goldenArm{
			name: fmt.Sprintf("%v/churn-seed7", mode),
			mode: mode, n0: 16, seed: 7, trace: 99,
			audit: AuditSampled, steps: 250,
		})
	}
	return arms
}

// goldenDigests pins stateDigest at the end of every golden arm. They
// were recorded while a second, map-keyed store backend still ran
// beside the dense columns and produced byte-identical state on every
// arm, so they carry that cross-check forward without the backend.
// Arms that differ only in audit tier share a digest (audits never
// touch engine state), as do the two modes until a trace reaches its
// first type-2 rebuild. A change that alters seeded behaviour on
// purpose must re-record them and say why.
var goldenDigests = map[string]string{
	"staggered/workers=1/audit=off":      "28c9a3af1f88f856d62bf8395f31e316e59d6c406031c4c8c49f4a6b6a32f81d",
	"staggered/workers=1/audit=sampled":  "28c9a3af1f88f856d62bf8395f31e316e59d6c406031c4c8c49f4a6b6a32f81d",
	"staggered/workers=1/audit=full":     "8bbd78226cefc0bf5edcb207ae0a0992c150936b4707b3389ee3eb375398bda6",
	"staggered/workers=4/audit=off":      "506989f85e690e1709ff42f8a267e10dab3b70591b5bc0393eb34a4cdac249d5",
	"staggered/workers=4/audit=sampled":  "506989f85e690e1709ff42f8a267e10dab3b70591b5bc0393eb34a4cdac249d5",
	"staggered/workers=8/audit=off":      "d55437a7b7ce135c628d3fc2a208e3718c4e32220641dd136d76892a0c2d558c",
	"staggered/workers=8/audit=sampled":  "d55437a7b7ce135c628d3fc2a208e3718c4e32220641dd136d76892a0c2d558c",
	"staggered/workers=8/audit=full":     "bb013638b21c1b7a2b6492cbec07ea55159404ebacbd5c6e4814400051bcc206",
	"staggered/churn-seed7":              "732a74abbd40dbd696ad7bdd16f0fdc6246f247dd08f09d951bfa518da87c85a",
	"simplified/workers=1/audit=off":     "28c9a3af1f88f856d62bf8395f31e316e59d6c406031c4c8c49f4a6b6a32f81d",
	"simplified/workers=1/audit=sampled": "28c9a3af1f88f856d62bf8395f31e316e59d6c406031c4c8c49f4a6b6a32f81d",
	"simplified/workers=1/audit=full":    "8bbd78226cefc0bf5edcb207ae0a0992c150936b4707b3389ee3eb375398bda6",
	"simplified/workers=4/audit=off":     "506989f85e690e1709ff42f8a267e10dab3b70591b5bc0393eb34a4cdac249d5",
	"simplified/workers=4/audit=sampled": "506989f85e690e1709ff42f8a267e10dab3b70591b5bc0393eb34a4cdac249d5",
	"simplified/workers=8/audit=off":     "5d9439c3e9811c200d05f67b6694acc7d7d43ed8b31c9cb2b379d211bf1b3c46",
	"simplified/workers=8/audit=sampled": "5d9439c3e9811c200d05f67b6694acc7d7d43ed8b31c9cb2b379d211bf1b3c46",
	"simplified/workers=8/audit=full":    "bb013638b21c1b7a2b6492cbec07ea55159404ebacbd5c6e4814400051bcc206",
	"simplified/churn-seed7":             "e0581e62231d58dc12e93bca6d7e5a773038d4ee6c651395e1083b75b40d8f3a",
}

// stateDigest hashes the externally visible engine state: the per-step
// metrics history, the virtual mapping, every node's load and Sim set,
// and the overlay's edge multiset. Each section is length-prefixed and
// nodes are visited in ascending id order, so the digest depends on
// the state alone.
func stateDigest(nw *Network) string {
	h := sha256.New()
	var buf [8]byte
	put := func(vs ...int64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	flag := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	hist := nw.History()
	put(int64(len(hist)))
	for _, m := range hist {
		put(int64(m.Step), int64(m.Op), int64(m.Target),
			int64(m.Rounds), int64(m.Messages), int64(m.TopologyChanges),
			int64(m.Recovery), int64(m.WalkRetries), int64(m.Floods),
			flag(m.StaggerActive), flag(m.StaggerStarted), flag(m.StaggerFinished),
			int64(m.N), m.P)
	}
	put(int64(len(nw.simOf)))
	for _, u := range nw.simOf {
		put(int64(u))
	}
	loads, sims := nw.st.loadSnapshot(), nw.st.simSnapshot()
	nodes := slices.Sorted(maps.Keys(sims))
	put(int64(len(nodes)))
	for _, u := range nodes {
		put(int64(u), int64(loads[u]), int64(len(sims[u])))
		for _, x := range sims[u] {
			put(int64(x))
		}
	}
	edges := nw.real.Edges()
	put(int64(len(edges)))
	for _, e := range edges {
		put(int64(e.U), int64(e.V), int64(e.Mult))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDenseMatchesMapOracle pins seeded engine behaviour byte for byte:
// growth, deletion storms, batches, and both rebuild modes, with the
// arm's audit tier run after every operation. Each arm ends with the
// exhaustive invariant check, a comparison of the incremental overlay
// against a from-scratch RecomputeGraph, and a digest of the whole
// observable state against goldenDigests. The name is kept from when a
// second, map-keyed engine ran each arm in lockstep: the digests are
// that oracle's recorded output, so the dense store still has to match
// it.
func TestDenseMatchesMapOracle(t *testing.T) {
	for _, arm := range goldenArms() {
		t.Run(arm.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mode = arm.mode
			cfg.Seed = arm.seed
			nw := mustNew(t, arm.n0, cfg)
			predrawPending(nw, arm.predraw)
			rng := rand.New(rand.NewSource(arm.trace))
			for i := 0; i < arm.steps; i++ {
				if err := traceStep(nw, rng); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if err := nw.Audit(arm.audit); err != nil {
					t.Fatalf("op %d: audit %v: %v", i, arm.audit, err)
				}
			}
			if err := nw.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := graphsEqual(nw.real, nw.RecomputeGraph()); err != nil {
				t.Fatalf("incremental overlay diverged from full rebuild: %v", err)
			}
			if got, want := stateDigest(nw), goldenDigests[arm.name]; got != want {
				t.Fatalf("seeded behaviour changed: state digest %s, want %s", got, want)
			}
		})
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
