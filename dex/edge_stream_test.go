package dex_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"repro/dex"
)

// edgeStreamSHA256 pins the whole EdgesChanged stream of the seed-11
// edgeChurn schedule (500 operations from 16 nodes) per recovery mode,
// digested by edgeStreamDigest. Both runs include type-2 rebuilds, so
// the digests cover rebuild diffs as well as type-1 recovery batches.
var edgeStreamSHA256 = map[dex.Mode]string{
	dex.Staggered:  "a8d7cb3af18e9e09d6d78800ac291407d55779a8f36dbcca225af810962a7001",
	dex.Simplified: "86b3dc1dc21ebeeefb7196efb735d35c0c9f6760c2f5756ccdcc11b2e85d6d87",
}

// recordEdgeStream runs the seed-11 edgeChurn schedule with edge events
// on and returns a deep copy of every EdgesChanged event, taken at
// delivery, plus the number of type-2 rebuilds seen.
func recordEdgeStream(t *testing.T, mode dex.Mode) (stream []dex.EdgesChanged, rebuilds int) {
	t.Helper()
	nw, err := dex.New(dex.WithInitialSize(16), dex.WithMode(mode), dex.WithSeed(11), dex.WithEdgeEvents(true))
	if err != nil {
		t.Fatal(err)
	}
	cancel := nw.Subscribe(func(ev dex.Event) {
		switch e := ev.(type) {
		case dex.EdgesChanged:
			stream = append(stream, dex.EdgesChanged{Step: e.Step, Deltas: slices.Clone(e.Deltas)})
		case dex.GraphRebuilt:
			rebuilds++
		}
	})
	defer cancel()
	edgeChurn(t, nw, 11, 500, func(int) {})
	return stream, rebuilds
}

// edgeStreamDigest hashes a stream as little-endian int64 words: per
// batch its step and length, then U, V, Delta of every entry.
func edgeStreamDigest(stream []dex.EdgesChanged) string {
	h := sha256.New()
	var w [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(w[:], uint64(x))
		h.Write(w[:])
	}
	for _, e := range stream {
		put(int64(e.Step))
		put(int64(len(e.Deltas)))
		for _, d := range e.Deltas {
			put(int64(d.U))
			put(int64(d.V))
			put(int64(d.Delta))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEdgeEventsBatchContract checks the EdgesChanged contract on every
// batch — non-empty, U <= V, Delta != 0, strictly increasing in (U,V),
// hence one entry per pair — and pins the whole stream by digest, so a
// change to how a step's mutations are merged or ordered shows up even
// where a replayed mirror would still converge.
func TestEdgeEventsBatchContract(t *testing.T) {
	for _, mode := range []dex.Mode{dex.Staggered, dex.Simplified} {
		t.Run(mode.String(), func(t *testing.T) {
			stream, rebuilds := recordEdgeStream(t, mode)
			if rebuilds == 0 {
				t.Fatal("churn never rebuilt; stream does not cover the rebuild diff path")
			}
			lastStep := 0
			for _, e := range stream {
				if e.Step <= lastStep {
					t.Fatalf("batch for step %d follows step %d", e.Step, lastStep)
				}
				lastStep = e.Step
				if len(e.Deltas) == 0 {
					t.Fatalf("step %d: empty batch published", e.Step)
				}
				for i, d := range e.Deltas {
					if d.U > d.V || d.Delta == 0 {
						t.Fatalf("step %d: malformed entry %+v", e.Step, d)
					}
					if i > 0 {
						p := e.Deltas[i-1]
						if p.U > d.U || (p.U == d.U && p.V >= d.V) {
							t.Fatalf("step %d: entries %+v, %+v not strictly increasing in (U,V)", e.Step, p, d)
						}
					}
				}
			}
			if got, want := edgeStreamDigest(stream), edgeStreamSHA256[mode]; got != want {
				t.Fatalf("EdgesChanged stream changed: sha256 %s, want %s", got, want)
			}
		})
	}
}

// TestAsyncEdgeEventsOwnedByReceiver checks that an async subscriber may
// keep every Deltas slice it is handed: the engine must give each step a
// fresh batch, never a view of storage it reuses later. The subscriber
// keeps the raw slices; after the whole run they must still equal the
// deep copies a synchronous run of the same seed took at delivery.
func TestAsyncEdgeEventsOwnedByReceiver(t *testing.T) {
	for _, mode := range []dex.Mode{dex.Staggered, dex.Simplified} {
		t.Run(mode.String(), func(t *testing.T) {
			want, _ := recordEdgeStream(t, mode)
			c, err := dex.NewConcurrent(dex.WithInitialSize(16), dex.WithMode(mode), dex.WithSeed(11),
				dex.WithEdgeEvents(true), dex.WithAsyncEvents(4))
			if err != nil {
				t.Fatal(err)
			}
			var kept []dex.EdgesChanged // written only by the dispatcher until Close returns
			c.Subscribe(func(ev dex.Event) {
				if e, ok := ev.(dex.EdgesChanged); ok {
					kept = append(kept, e)
				}
			})
			edgeChurn(t, c, 11, 500, func(int) {})
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if len(kept) != len(want) {
				t.Fatalf("async run delivered %d batches, sync run %d", len(kept), len(want))
			}
			for i := range want {
				if kept[i].Step != want[i].Step || !slices.Equal(kept[i].Deltas, want[i].Deltas) {
					t.Fatalf("batch %d (step %d) changed after delivery: kept %v, delivered %v",
						i, want[i].Step, kept[i].Deltas, want[i].Deltas)
				}
			}
		})
	}
}
