package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// This file is the bench-core tier: the engine-state benchmarks and
// allocation-regression gates for the dense slot-indexed store, the
// per-op analogue of internal/graph's bench/alloc gates for the arena.
// BenchmarkRecoveryOp prices one steady-state recovery operation
// (delete + insert at fixed n); the Test*Allocs gates pin the recovery
// path at zero allocations per op so a map or slice can't silently
// sneak back into it.

// steadyEngine builds an n-node network, churned enough that the
// store's free lists and the arena runs are at steady-state capacity,
// with history capped so metrics append-growth can't masquerade as a
// recovery-path allocation.
func steadyEngine(tb testing.TB, n int) *Network {
	cfg := DefaultConfig()
	cfg.HistoryCap = 128
	nw, err := New(64, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for nw.Size() < n {
		k := n - nw.Size()
		if k > 512 {
			k = 512
		}
		nodes := nw.Nodes()
		specs := make([]InsertSpec, k)
		for j := range specs {
			specs[j] = InsertSpec{ID: nw.FreshID(), Attach: nodes[j%len(nodes)]}
		}
		if err := nw.InsertBatch(specs); err != nil {
			tb.Fatal(err)
		}
	}
	// Settle: cross any in-flight rebuild and warm the churn path.
	for i := 0; i < 2*n/100+200; i++ {
		if err := nw.Delete(nw.SampleNode(rng)); err != nil {
			tb.Fatal(err)
		}
		if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
			tb.Fatal(err)
		}
	}
	return nw
}

// BenchmarkRecoveryOp measures one steady-state recovery operation — a
// delete (adoption + redistribution walks) followed by an insert
// (donor walk) at constant n — on the slot-indexed store. The row keeps
// its historical "dense" name, which the committed BENCH_core.json
// baseline and the bench-diff gate key on. Run via `make bench-core`.
func BenchmarkRecoveryOp(b *testing.B) {
	for _, size := range []int{100000} {
		b.Run(fmt.Sprintf("dense/n=%d", size), func(b *testing.B) {
			nw := steadyEngine(b, size)
			rng := rand.New(rand.NewSource(23))
			// Start the window GC-clean: setup churns through
			// hundreds of MB, and whether the pacer fires a cycle
			// inside the short timed window is otherwise a coin
			// flip worth ±20% on ns/op (the loop itself allocates
			// nothing, so a fresh pacer epoch stays quiet).
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := nw.Delete(nw.SampleNode(rng)); err != nil {
					b.Fatal(err)
				}
				if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRecoveryOpZeroAllocsSteadyState is the alloc-regression gate on
// the recovery path: at steady state (no type-2 rebuild in the
// window), a delete+insert pair must not allocate — walks, vertex-set
// moves, load updates, dirty tracking, and capped-history append all
// run in recycled storage. The window is placed between rebuilds by
// construction: theta*n steps separate triggers at this size, far
// more than the samples consumed.
func TestRecoveryOpZeroAllocsSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is a few thousand ops")
	}
	nw := steadyEngine(t, 4096)
	rng := rand.New(rand.NewSource(29))
	// One more warm lap so FreshID growth and scratch slices are sized.
	for i := 0; i < 256; i++ {
		if err := nw.Delete(nw.SampleNode(rng)); err != nil {
			t.Fatal(err)
		}
		if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(400, func() {
		if err := nw.Delete(nw.SampleNode(rng)); err != nil {
			t.Fatal(err)
		}
		if err := nw.Insert(nw.FreshID(), nw.SampleNode(rng)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state delete+insert allocates %.2f per pair, want 0", allocs)
	}
}
