package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/wire"
)

// encodeState serializes nw, failing the test on error.
func encodeState(t *testing.T, nw *Network) []byte {
	t.Helper()
	enc := wire.NewEncoder(nil)
	if err := nw.AppendState(enc); err != nil {
		t.Fatalf("AppendState: %v", err)
	}
	return append([]byte(nil), enc.Bytes()...)
}

// restoreState decodes a snapshot, failing the test on error.
func restoreState(t *testing.T, data []byte) *Network {
	t.Helper()
	nw, err := RestoreNetwork(wire.NewDecoder(data))
	if err != nil {
		t.Fatalf("RestoreNetwork: %v", err)
	}
	return nw
}

// predrawPending appends k walk seeds drawn from nw's RNG to its
// pending seed queue. An engine that ran an N-wide speculative walk
// pool checkpointed with up to N-1 such seeds pre-drawn but not yet
// consumed; the checkpoint format still carries that suffix and
// walkSeed drains it before drawing fresh, so the consumed seed stream
// is the same as without the pre-draw.
func predrawPending(nw *Network, k int) {
	for i := 0; i < k; i++ {
		nw.seedQ = append(nw.seedQ, nw.drawU64())
	}
}

// pendingSeeds returns nw's unconsumed pending seed suffix.
func pendingSeeds(nw *Network) []uint64 { return nw.seedQ[nw.seedHead:] }

// requireSameState compares everything observable between two engines.
func requireSameState(t *testing.T, tag string, a, b *Network) {
	t.Helper()
	if a.P() != b.P() {
		t.Fatalf("%s: P %d != %d", tag, a.P(), b.P())
	}
	if a.Size() != b.Size() {
		t.Fatalf("%s: size %d != %d", tag, a.Size(), b.Size())
	}
	if !reflect.DeepEqual(a.simOf, b.simOf) {
		t.Fatalf("%s: mappings differ", tag)
	}
	if !reflect.DeepEqual(a.st.nodeList, b.st.nodeList) {
		t.Fatalf("%s: sampling mirrors differ", tag)
	}
	if !reflect.DeepEqual(a.st.loadSnapshot(), b.st.loadSnapshot()) {
		t.Fatalf("%s: loads differ", tag)
	}
	if !reflect.DeepEqual(a.st.simSnapshot(), b.st.simSnapshot()) {
		t.Fatalf("%s: sim sets differ", tag)
	}
	if !reflect.DeepEqual(a.History(), b.History()) {
		t.Fatalf("%s: histories differ", tag)
	}
	if a.Totals() != b.Totals() {
		t.Fatalf("%s: totals differ:\n%+v\n%+v", tag, a.Totals(), b.Totals())
	}
	if a.rngDraws != b.rngDraws || !slices.Equal(pendingSeeds(a), pendingSeeds(b)) {
		t.Fatalf("%s: RNG state differs: draws %d vs %d, pending seeds %v vs %v",
			tag, a.rngDraws, b.rngDraws, pendingSeeds(a), pendingSeeds(b))
	}
	if err := graphsEqual(a.Graph(), b.Graph()); err != nil {
		t.Fatalf("%s: overlays differ: %v", tag, err)
	}
	if a.nSpare != b.nSpare || a.nLow != b.nLow {
		t.Fatalf("%s: counters (%d,%d) != (%d,%d)", tag, a.nSpare, a.nLow, b.nSpare, b.nLow)
	}
	aAct, aPh := a.Rebuilding()
	bAct, bPh := b.Rebuilding()
	if aAct != bAct || aPh != bPh {
		t.Fatalf("%s: rebuild state (%v,%d) != (%v,%d)", tag, aAct, aPh, bAct, bPh)
	}
}

// churnBoth applies an identical adversarial schedule to both engines,
// requiring byte-identical outcomes after every step.
func churnBoth(t *testing.T, a, b *Network, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			id := a.FreshID()
			if got := b.FreshID(); got != id {
				t.Fatalf("step %d: fresh ids diverge: %d vs %d", i, id, got)
			}
			attach := a.SampleNode(rand.New(rand.NewSource(int64(i) ^ seed)))
			if err := a.Insert(id, attach); err != nil {
				t.Fatalf("step %d: insert a: %v", i, err)
			}
			if err := b.Insert(id, attach); err != nil {
				t.Fatalf("step %d: insert b: %v", i, err)
			}
		case 2:
			victim := a.SampleNode(rand.New(rand.NewSource(int64(i) ^ seed)))
			errA := a.Delete(victim)
			errB := b.Delete(victim)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("step %d: delete diverges: %v vs %v", i, errA, errB)
			}
		default:
			id := a.FreshID()
			b.FreshID()
			attach := a.SampleNode(rand.New(rand.NewSource(int64(i) ^ seed)))
			specs := []InsertSpec{{ID: id, Attach: attach}, {ID: id + 1_000_000, Attach: attach}}
			if err := a.InsertBatch(specs); err != nil {
				t.Fatalf("step %d: batch a: %v", i, err)
			}
			if err := b.InsertBatch(specs); err != nil {
				t.Fatalf("step %d: batch b: %v", i, err)
			}
		}
		if a.LastStep() != b.LastStep() {
			t.Fatalf("step %d: metrics diverge:\n%+v\n%+v", i, a.LastStep(), b.LastStep())
		}
	}
	requireSameState(t, "after continuation churn", a, b)
	if err := a.CheckInvariants(); err != nil {
		t.Fatalf("original invariants: %v", err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("restored invariants: %v", err)
	}
	if err := graphsEqual(b.Graph(), b.RecomputeGraph()); err != nil {
		t.Fatalf("restored engine diverged from its rebuilt overlay: %v", err)
	}
}

// The wN arms snapshot an engine holding the N-1 pre-drawn walk seeds
// an N-wide walk pool could leave in a checkpoint (see predrawPending);
// the restored engine must carry the same suffix and consume it in the
// same order. w1 is the plain serial round trip.
func TestSnapshotRoundTripSteady(t *testing.T) {
	for _, mode := range []RecoveryMode{Simplified, Staggered} {
		for _, workers := range []int{1, 4, 8} {
			t.Run(fmt.Sprintf("%v/w%d", mode, workers), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Mode = mode
				cfg.Seed = 42
				nw, err := New(64, cfg)
				if err != nil {
					t.Fatal(err)
				}
				snapChurn(t, nw, 7, 300)
				predrawPending(nw, workers-1)

				data := encodeState(t, nw)
				re := restoreState(t, data)
				if got := len(pendingSeeds(re)); got != workers-1 {
					t.Fatalf("restored %d pending seeds, want %d", got, workers-1)
				}
				requireSameState(t, "immediately after restore", nw, re)
				churnBoth(t, nw, re, 99, 300)
				if n := len(pendingSeeds(re)); n != 0 {
					t.Fatalf("%d pending seeds left after continuation churn", n)
				}
			})
		}
	}
}

// churn drives one engine with simple random churn.
func snapChurn(t *testing.T, nw *Network, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		if rng.Intn(2) == 0 || nw.Size() <= 8 {
			if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
				t.Fatalf("churn insert: %v", err)
			}
		} else if err := nw.Delete(nw.SampleNode(rng)); err != nil {
			t.Fatalf("churn delete: %v", err)
		}
	}
}

// TestSnapshotRoundTripMidStagger snapshots while a staggered rebuild is
// in flight — in both phases — and requires the restored engine to drive
// the rebuild to the same commit. The w4 arm adds three pre-drawn walk
// seeds before each snapshot, as TestSnapshotRoundTripSteady does.
func TestSnapshotRoundTripMidStagger(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Seed = 11
			nw, err := New(64, cfg)
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(5))
			snapshots := 0
			for i := 0; i < 4000 && snapshots < 4; i++ {
				if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
					t.Fatal(err)
				}
				active, phase := nw.Rebuilding()
				if !active {
					continue
				}
				// Snapshot once per phase per rebuild encountered.
				if (phase == 1 && snapshots%2 == 0) || (phase == 2 && snapshots%2 == 1) {
					snapshots++
					predrawPending(nw, workers-1)
					data := encodeState(t, nw)
					re := restoreState(t, data)
					requireSameState(t, fmt.Sprintf("mid-stagger phase %d", phase), nw, re)
					// Drive both to the rebuild commit and beyond.
					churnBoth(t, nw, re, int64(1000+i), 200)
				}
			}
			if snapshots < 2 {
				t.Fatalf("only %d mid-stagger snapshots taken; rebuild never engaged?", snapshots)
			}
		})
	}
}

func TestSnapshotRejectsForeignRNG(t *testing.T) {
	nw, err := New(16, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nw.SetRNG(rand.New(rand.NewSource(7)))
	if err := nw.AppendState(wire.NewEncoder(nil)); err == nil {
		t.Fatal("AppendState accepted a replaced RNG")
	}
}

func TestSnapshotRejectsTruncation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	nw, err := New(32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snapChurn(t, nw, 9, 100)
	data := encodeState(t, nw)
	stride := len(data)/97 + 1
	for cut := 0; cut < len(data); cut += stride {
		if _, err := RestoreNetwork(wire.NewDecoder(data[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(data))
		}
	}
}
