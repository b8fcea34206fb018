package dex_test

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/dex"
)

// driveSeededChurn applies the identical seeded op sequence to any
// maintainer-shaped driver via the supplied closures.
func driveSeededChurn(t *testing.T, seed int64, steps int, size func() int, nodes func() []dex.NodeID, fresh func() dex.NodeID, insert func(id, at dex.NodeID) error, del func(id dex.NodeID) error) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		ns := nodes()
		var err error
		if rng.Float64() < 0.55 || size() <= 6 {
			err = insert(fresh(), ns[rng.Intn(len(ns))])
		} else {
			err = del(ns[rng.Intn(len(ns))])
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

// TestConcurrentMatchesPlain: a single-caller Concurrent façade
// reproduces the plain Network byte for byte — History, overlay, node
// set.
func TestConcurrentMatchesPlain(t *testing.T) {
	plain, err := dex.New(dex.WithInitialSize(24), dex.WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	conc, err := dex.NewConcurrent(dex.WithInitialSize(24), dex.WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	defer conc.Close()

	driveSeededChurn(t, 21, 300, plain.Size, plain.Nodes, plain.FreshID, plain.Insert, plain.Delete)
	driveSeededChurn(t, 21, 300, conc.Size, conc.Nodes, conc.FreshID, conc.Insert, conc.Delete)

	if !reflect.DeepEqual(plain.History(), conc.History()) {
		t.Fatal("histories diverged between plain and concurrent façade")
	}
	if !reflect.DeepEqual(plain.Nodes(), conc.Nodes()) {
		t.Fatal("node sets diverged")
	}
	snap, epoch := conc.Snapshot()
	if !reflect.DeepEqual(plain.Graph().Edges(), snap.Edges()) {
		t.Fatal("overlay edge multisets diverged")
	}
	if epoch == 0 {
		t.Fatal("snapshot epoch is zero after 300 churn steps")
	}
	if err := conc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentHammer is the -race gate: goroutines hammering churn
// ops, subscription churn, and snapshot/history/sample readers against
// one façade with async events. Correctness
// here is "no race, no deadlock, invariants hold, events flow".
func TestConcurrentHammer(t *testing.T) {
	c, err := dex.NewConcurrent(
		dex.WithInitialSize(32),
		dex.WithSeed(31),
		dex.WithAsyncEvents(64),
	)
	if err != nil {
		t.Fatal(err)
	}
	var events atomic.Int64
	cancel := c.Subscribe(func(dex.Event) { events.Add(1) })
	defer cancel()

	const opsPerWorker = 150
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsPerWorker; i++ {
				if rng.Float64() < 0.6 || c.Size() <= 12 {
					// The sampled attach point can be deleted by the peer
					// goroutine before Insert takes the lock; that surfaces
					// as ErrUnknownNode and is part of the contract.
					err := c.Insert(c.FreshID(), c.Sample())
					if err != nil && !errors.Is(err, dex.ErrUnknownNode) {
						t.Errorf("insert: %v", err)
						return
					}
				} else {
					err := c.Delete(c.Sample())
					if err != nil && !errors.Is(err, dex.ErrUnknownNode) && !errors.Is(err, dex.ErrTooSmall) {
						t.Errorf("delete: %v", err)
						return
					}
				}
			}
		}(int64(100 + w))
	}
	// Subscription churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			stop := c.Subscribe(func(dex.Event) {})
			stop()
		}
	}()
	// Readers: snapshots, history copies, aggregates.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			snap, _ := c.Snapshot()
			if snap.NumNodes() == 0 {
				t.Error("empty snapshot")
				return
			}
			_ = c.History()
			_ = c.Totals()
			_ = c.MaxLoad()
			_ = c.Nodes()
		}
	}()
	wg.Wait()

	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("invariants after concurrent hammer: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if events.Load() == 0 {
		t.Fatal("no events delivered")
	}
	if err := c.Insert(c.FreshID(), 0); !errors.Is(err, dex.ErrClosed) {
		t.Fatalf("insert after Close: %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestAsyncEventsOrderAndFlush: the async dispatcher delivers exactly
// the synchronous event stream, in order, and Close flushes everything
// still buffered.
func TestAsyncEventsOrderAndFlush(t *testing.T) {
	run := func(async bool) []dex.Event {
		opts := []dex.Option{dex.WithInitialSize(16), dex.WithSeed(41)}
		if async {
			opts = append(opts, dex.WithAsyncEvents(512))
		}
		c, err := dex.NewConcurrent(opts...)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var got []dex.Event
		c.Subscribe(func(ev dex.Event) { mu.Lock(); got = append(got, ev); mu.Unlock() })
		driveSeededChurn(t, 41, 200, c.Size, c.Nodes, c.FreshID, c.Insert, c.Delete)
		if err := c.Close(); err != nil { // flushes the queue in async mode
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		return got
	}
	sync1 := run(false)
	async1 := run(true)
	if len(sync1) == 0 {
		t.Fatal("no events in 200 churn steps")
	}
	if !reflect.DeepEqual(sync1, async1) {
		t.Fatalf("async stream diverged from sync stream: %d vs %d events", len(async1), len(sync1))
	}
}

// TestAsyncCallbackMayMutate: with async events a subscriber callback
// can call back into the façade — the very thing that is a deadlock in
// sync mode and ErrReentrantOp on the plain network.
func TestAsyncCallbackMayMutate(t *testing.T) {
	c, err := dex.NewConcurrent(dex.WithInitialSize(16), dex.WithSeed(51), dex.WithAsyncEvents(64))
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	reentry := make(chan error, 1)
	c.Subscribe(func(dex.Event) {
		once.Do(func() { reentry <- c.Insert(c.FreshID(), c.Sample()) })
	})
	driveSeededChurn(t, 51, 100, c.Size, c.Nodes, c.FreshID, c.Insert, c.Delete)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-reentry:
		if err != nil && !errors.Is(err, dex.ErrClosed) {
			t.Fatalf("callback mutation failed: %v", err)
		}
	default:
		t.Fatal("callback never ran")
	}
}

// TestAsyncCallbackMayClose: a subscriber callback calling Close in
// async mode must not deadlock the dispatcher (Close detects it is on
// the dispatcher goroutine and skips waiting for its own drain); the
// façade still shuts down cleanly and a later Close from the outside
// waits for the drain and returns.
func TestAsyncCallbackMayClose(t *testing.T) {
	c, err := dex.NewConcurrent(dex.WithInitialSize(16), dex.WithSeed(61), dex.WithAsyncEvents(8))
	if err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	var once sync.Once
	c.Subscribe(func(dex.Event) {
		delivered.Add(1)
		once.Do(func() {
			if err := c.Close(); err != nil {
				t.Errorf("callback Close: %v", err)
			}
		})
	})
	sawClosed := false
	for i := 0; i < 100000; i++ {
		if err := c.Insert(c.FreshID(), c.Sample()); errors.Is(err, dex.ErrClosed) {
			sawClosed = true
			break
		} else if err != nil {
			t.Fatal(err)
		}
		runtime.Gosched() // let the dispatcher (and its Close) run
	}
	if err := c.Close(); err != nil { // outside Close: waits for the drain
		t.Fatal(err)
	}
	if !sawClosed {
		t.Fatal("callback Close never took effect")
	}
	if delivered.Load() == 0 {
		t.Fatal("no events delivered")
	}
}

// TestAsyncEventsRequiresConcurrent: plain New rejects WithAsyncEvents.
func TestAsyncEventsRequiresConcurrent(t *testing.T) {
	if _, err := dex.New(dex.WithAsyncEvents(8)); err == nil {
		t.Fatal("New accepted WithAsyncEvents")
	}
	if _, err := dex.NewConcurrent(dex.WithAsyncEvents(-1)); err == nil {
		t.Fatal("negative async buffer accepted")
	}
}
