package graph

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestSlotMutatorsMatchIDForms: the slot-native mutators (AddEdgeAt /
// AddEdgeMultAt / RemoveEdgeAt / RemoveEdgeMultAt) are exact drop-ins
// for the id-keyed forms — same structure, same return values, same
// epoch discipline — across a randomized churn script that exercises
// in-place multiplicity bumps, run growth, entry removal, node
// removal, and arena compaction.
func TestSlotMutatorsMatchIDForms(t *testing.T) {
	a, b := New(), New()
	const n = 48
	for u := NodeID(0); u < n; u++ {
		a.AddNode(u)
		b.AddNode(u)
	}
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 5000; step++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		k := 1 + rng.Intn(3)
		su, ok := b.SlotOf(u)
		if !ok {
			t.Fatalf("step %d: node %d has no slot", step, u)
		}
		if rng.Float64() < 0.55 {
			if k == 1 {
				a.AddEdge(u, v)
				b.AddEdgeAt(su, u, v)
			} else {
				a.AddEdgeMult(u, v, k)
				b.AddEdgeMultAt(su, u, v, k)
			}
		} else {
			if k == 1 {
				ra := a.RemoveEdge(u, v)
				rb := b.RemoveEdgeAt(su, u, v)
				if ra != rb {
					t.Fatalf("step %d: RemoveEdge(%d,%d)=%v, RemoveEdgeAt=%v", step, u, v, ra, rb)
				}
			} else {
				ra := a.RemoveEdgeMult(u, v, k)
				rb := b.RemoveEdgeMultAt(su, u, v, k)
				if ra != rb {
					t.Fatalf("step %d: RemoveEdgeMult(%d,%d,%d)=%d, RemoveEdgeMultAt=%d", step, u, v, k, ra, rb)
				}
			}
		}
	}
	if !reflect.DeepEqual(a.Edges(), b.Edges()) {
		t.Fatal("edge multisets diverged between id-keyed and slot-native mutators")
	}
	if a.NumEdges() != b.NumEdges() || a.Epoch() != b.Epoch() {
		t.Fatalf("edges/epoch diverged: (%d,%d) vs (%d,%d)", a.NumEdges(), a.Epoch(), b.NumEdges(), b.Epoch())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentReadersAreReadOnly is the -race regression for the
// removed one-entry id→slot mutation cache (lastID/lastSlot): that
// cache turned every id-keyed lookup into a hidden write, so concurrent
// readers raced each other. Readers must now share a quiescent
// graph freely: this hammers every id-keyed and slot-keyed read path
// from many goroutines at once and fails under -race if any of them
// mutates shared state.
func TestConcurrentReadersAreReadOnly(t *testing.T) {
	g := New()
	const n = 64
	for u := NodeID(0); u < n; u++ {
		g.AddNode(u)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 600; i++ {
		g.AddEdgeMult(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), 1+rng.Intn(2))
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 4000; i++ {
				u := NodeID(r.Intn(n))
				v := NodeID(r.Intn(n))
				_ = g.Degree(u)
				_ = g.Multiplicity(u, v)
				_ = g.HasEdge(u, v)
				_ = g.Neighbors(u)
				if s, ok := g.SlotOf(u); ok {
					g.ForEachNeighborAt(s, func(NodeID, int32, int) bool { return true })
					_, _, _ = g.RandomNeighborStepAt(s, -1, r.Uint64())
				}
				g.ForEachNeighbor(u, func(NodeID, int) bool { return true })
				_, _ = g.RandomNeighborStep(u, -1, r.Uint64())
			}
		}(int64(100 + w))
	}
	wg.Wait()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
