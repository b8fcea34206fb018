package dex

import (
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// Concurrent is a thread-safe façade over a Network: every method is
// safe for use from any number of goroutines. Operations and engine
// reads serialize on one mutex; Graph accessors return point-in-time
// snapshots instead of live structure, so readers never observe the
// engine mid-mutation.
//
// Event delivery comes in two flavors:
//
//   - synchronous (default): subscriber callbacks run on the mutating
//     goroutine while the façade lock is held. Callbacks must therefore
//     not call back into the façade (the mutex is not re-entrant) —
//     they get the same contract as plain Network subscribers.
//   - asynchronous (WithAsyncEvents): callbacks run on a dedicated
//     dispatcher goroutine fed by an ordered queue, strictly in publish
//     order. Mutating operations never wait for callbacks — the queue
//     grows past its initial capacity instead of blocking, so a
//     subscriber that falls behind costs memory, never deadlock or
//     loss — and callbacks may freely call any façade method, including
//     mutations. Close flushes the queue before returning.
//
// Operations commit one at a time through the same serial path as the
// plain Network. Determinism under concurrent *callers* is necessarily
// scheduling-dependent (the interleaving of operations is whatever the
// callers make it), but each individual operation remains the paper's
// algorithm, and a single-caller Concurrent with a fixed seed
// reproduces the plain Network byte for byte.
type Concurrent struct {
	mu  sync.Mutex
	nw  *Network
	rng *rand.Rand // façade-owned sampling source; guarded by mu

	evq           *eventQueue   // non-nil in async mode
	done          chan struct{} // dispatcher exit signal
	dispatcherGid atomic.Uint64 // goroutine id of the dispatcher (async mode)

	subMu    sync.Mutex
	subs     []subscriber
	subsSnap []subscriber
	nextSub  int

	closed    bool
	closeDone chan struct{} // closed once the first Close has fully torn down
	closeErr  error         // the first Close's result; valid after closeDone
}

// NewConcurrent builds a Network wrapped in a Concurrent façade. It
// accepts every option New accepts, plus WithAsyncEvents. Call Close
// when done — it flushes and stops the async dispatcher (if any) and
// closes the WAL under WithPersistence.
func NewConcurrent(opts ...Option) (*Concurrent, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if o.err != nil {
		return nil, o.err
	}
	nw, err := newFromOptions(o)
	if err != nil {
		return nil, err
	}
	c := &Concurrent{
		nw: nw,
		// The sampling stream is deliberately decoupled from the engine
		// seed so Sample calls never perturb seeded recovery runs.
		rng:       rand.New(rand.NewSource(o.cfg.Seed ^ 0x5a3c_f00d)),
		closeDone: make(chan struct{}),
	}
	nw.Subscribe(c.forward)
	if o.asyncBuf >= 0 {
		c.evq = newEventQueue(o.asyncBuf)
		c.done = make(chan struct{})
		go c.dispatch()
	}
	return c, nil
}

// forward routes one engine event to the façade's subscribers: through
// the queue in async mode, inline otherwise. It runs with c.mu held
// (events only fire inside mutating operations), which is why the
// enqueue must never block: the dispatcher may itself be parked inside
// a callback that is waiting for c.mu.
func (c *Concurrent) forward(ev Event) {
	if c.evq != nil {
		c.evq.push(ev)
		return
	}
	c.deliver(ev)
}

// dispatch is the async delivery loop: it drains the queue in publish
// order and exits once Close marks the queue done and everything
// buffered has been delivered.
func (c *Concurrent) dispatch() {
	c.dispatcherGid.Store(goid())
	for {
		batch, ok := c.evq.wait()
		for _, ev := range batch {
			c.deliver(ev)
		}
		if !ok {
			close(c.done)
			return
		}
	}
}

// goid returns the current goroutine's id, parsed from the stable
// "goroutine N [state]:" header of runtime.Stack. Only used on the
// Close path to recognize a Close issued from inside a subscriber
// callback (i.e. on the dispatcher goroutine itself) — such a Close
// must not wait for the dispatcher to finish draining, because the
// dispatcher is parked inside that very callback.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(buf[:n])
	if len(f) < 2 {
		return 0
	}
	id, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return id
}

// eventQueue is the unbounded FIFO between publishers and the
// dispatcher. Unbounded is a correctness requirement, not a
// convenience: publishers hold the façade lock, and a bounded queue
// would deadlock the moment it filled while a dispatcher callback was
// calling back into the façade.
type eventQueue struct {
	mu     sync.Mutex
	ready  sync.Cond
	buf    []Event
	closed bool
}

// evQueueResetCap bounds the buffer capacity allocated across batch
// swaps: replacement buffers size to twice the batch just handed over
// (so a steady flow settles without re-growth), never above this cap —
// one slow-subscriber burst must not ratchet every later (typically
// tiny) batch allocation up to burst size forever, and a huge initial
// capacity must not be re-paid on every dispatcher wakeup.
const evQueueResetCap = 4096

func newEventQueue(capacity int) *eventQueue {
	q := &eventQueue{buf: make([]Event, 0, capacity)}
	q.ready.L = &q.mu
	return q
}

func (q *eventQueue) push(ev Event) {
	q.mu.Lock()
	q.buf = append(q.buf, ev)
	q.mu.Unlock()
	q.ready.Signal()
}

// wait blocks until events are queued (returning them in order) or the
// queue is closed and empty (returning ok=false). The swapped-out
// batch lets the dispatcher deliver without holding the queue lock.
func (q *eventQueue) wait() (batch []Event, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == 0 && !q.closed {
		q.ready.Wait()
	}
	batch = q.buf
	nc := 2 * len(batch)
	if nc < 64 {
		nc = 64
	}
	if nc > evQueueResetCap {
		nc = evQueueResetCap
	}
	q.buf = make([]Event, 0, nc)
	return batch, !q.closed || len(batch) > 0
}

func (q *eventQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.ready.Signal()
}

// deliver invokes the façade's subscribers in registration order,
// iterating a pinned snapshot exactly like Network.publish so
// subscribe/cancel during delivery cannot disturb the in-flight round.
func (c *Concurrent) deliver(ev Event) {
	c.subMu.Lock()
	if len(c.subs) == 0 {
		c.subMu.Unlock()
		return
	}
	if c.subsSnap == nil {
		c.subsSnap = append([]subscriber(nil), c.subs...)
	}
	snap := c.subsSnap
	c.subMu.Unlock()
	for _, s := range snap {
		s.fn(ev)
	}
}

// Subscribe registers fn for every future event and returns an
// idempotent cancel function. In async mode fn runs on the dispatcher
// goroutine, in publish order; in sync mode it runs on the mutating
// goroutine under the façade lock (and must not call back into the
// façade).
func (c *Concurrent) Subscribe(fn func(Event)) (cancel func()) {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	id := c.nextSub
	c.nextSub++
	c.subs = append(c.subs, subscriber{id: id, fn: fn})
	c.subsSnap = nil
	return func() {
		c.subMu.Lock()
		defer c.subMu.Unlock()
		for i, s := range c.subs {
			if s.id == id {
				c.subs = append(c.subs[:i], c.subs[i+1:]...)
				c.subsSnap = nil
				return
			}
		}
	}
}

// Subscribers returns the number of live subscriptions.
func (c *Concurrent) Subscribers() int {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	return len(c.subs)
}

// op wraps one mutating call under the façade lock.
func (c *Concurrent) op(f func(*Network) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return f(c.nw)
}

// Insert adds node id attached at node attach and runs recovery.
func (c *Concurrent) Insert(id, attach NodeID) error {
	return c.op(func(nw *Network) error { return nw.Insert(id, attach) })
}

// Delete removes node id and runs recovery.
func (c *Concurrent) Delete(id NodeID) error {
	return c.op(func(nw *Network) error { return nw.Delete(id) })
}

// InsertBatch performs one adversarial step inserting all specs at once.
func (c *Concurrent) InsertBatch(specs []InsertSpec) error {
	return c.op(func(nw *Network) error { return nw.InsertBatch(specs) })
}

// DeleteBatch performs one adversarial step deleting all ids at once.
func (c *Concurrent) DeleteBatch(ids []NodeID) error {
	return c.op(func(nw *Network) error { return nw.DeleteBatch(ids) })
}

// Do runs f with exclusive access to the wrapped Network: an escape
// hatch for multi-call atomic sections (inspect-then-mutate, invariant
// probes around an operation) that must not interleave with other
// callers. f must not retain the *Network, and in sync-events mode it
// inherits the callback restrictions of any mutation it performs.
func (c *Concurrent) Do(f func(*Network) error) error { return c.op(f) }

// Size returns the current number of real nodes n.
func (c *Concurrent) Size() int { return locked(c, (*Network).Size) }

// P returns the current p-cycle modulus.
func (c *Concurrent) P() int64 { return locked(c, (*Network).P) }

// Zeta returns the configured maximum cloud size.
func (c *Concurrent) Zeta() int { return locked(c, (*Network).Zeta) }

// MaxLoad returns the maximum load over all nodes.
func (c *Concurrent) MaxLoad() int { return locked(c, (*Network).MaxLoad) }

// SpareCount returns |Spare|.
func (c *Concurrent) SpareCount() int { return locked(c, (*Network).SpareCount) }

// LowCount returns |Low|.
func (c *Concurrent) LowCount() int { return locked(c, (*Network).LowCount) }

// Coordinator returns the node currently simulating vertex 0.
func (c *Concurrent) Coordinator() NodeID { return locked(c, (*Network).Coordinator) }

// FreshID returns a never-used node id and advances the internal
// counter; concurrent callers receive distinct ids.
func (c *Concurrent) FreshID() NodeID { return locked(c, (*Network).FreshID) }

// Nodes returns the current node ids in ascending order (a fresh
// slice; safe to retain).
func (c *Concurrent) Nodes() []NodeID { return locked(c, (*Network).Nodes) }

// Totals returns O(1)-memory lifetime aggregates of the per-step
// metrics.
func (c *Concurrent) Totals() Totals { return locked(c, (*Network).Totals) }

// LastStep returns the metrics of the most recent step.
func (c *Concurrent) LastStep() StepMetrics { return locked(c, (*Network).LastStep) }

// LastCost returns the most recent step's cost triple.
func (c *Concurrent) LastCost() Cost { return locked(c, (*Network).LastCost) }

// Load returns the number of virtual vertices node u simulates.
func (c *Concurrent) Load(u NodeID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nw.Load(u)
}

// History returns a copy of the per-step metrics history. Unlike the
// plain Network's History, the returned slice is the caller's own: the
// engine's backing array keeps being appended (and, under
// WithHistoryCap, compacted in place) by later operations, so an
// aliased view would be torn under concurrency.
func (c *Concurrent) History() []StepMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]StepMetrics(nil), c.nw.History()...)
}

// Snapshot returns a deep copy of the overlay graph and the epoch it
// was taken at: a consistent point-in-time view that can be read
// lock-free forever, no matter how the live network churns on. This is
// how subscriber mirrors, spectral probes, and debuggers read a
// concurrently maintained overlay.
func (c *Concurrent) Snapshot() (*Graph, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nw.Graph().Snapshot()
}

// Graph returns a point-in-time snapshot of the overlay (satisfying
// the Maintainer contract). The live graph is never exposed — it may
// be mid-mutation on another goroutine; use Snapshot to also learn the
// epoch, or Do for an exclusive look at the live structure.
func (c *Concurrent) Graph() *Graph {
	g, _ := c.Snapshot()
	return g
}

// SampleNode returns a uniformly random live node id in O(1), drawing
// from the caller-owned rng (see Network.SampleNode for the ownership
// rule; the façade lock protects the network, not the caller's rng).
func (c *Concurrent) SampleNode(rng *rand.Rand) NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nw.SampleNode(rng)
}

// Sample returns a uniformly random live node id in O(1) from the
// façade's own locked source — the race-free way for many goroutines
// to pick churn targets without coordinating RNG ownership.
func (c *Concurrent) Sample() NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nw.SampleNode(c.rng)
}

// CheckInvariants mechanically verifies every structural invariant of
// the paper.
func (c *Concurrent) CheckInvariants() error {
	return c.op(func(nw *Network) error { return nw.CheckInvariants() })
}

// Audit runs the given invariant-checking tier immediately.
func (c *Concurrent) Audit(mode AuditMode) error {
	return c.op(func(nw *Network) error { return nw.Audit(mode) })
}

// Close shuts the façade down: subsequent mutating operations return
// ErrClosed, every event already published is delivered (the async
// queue is drained in order) before Close returns, and the WAL
// (WithPersistence) is released — in that order, so no WAL append can
// land after Close returns. Idempotent, and a late duplicate Close
// waits for the winning Close to finish the whole teardown (drain
// included) and returns its result, so no caller can observe
// Close-returned while callbacks are still running or the WAL is still
// open. One exception, by necessity: a Close issued from
// inside a subscriber callback (on the dispatcher goroutine) cannot
// wait for its own goroutine to finish draining — it initiates (or
// observes) shutdown and returns nil; the dispatcher still delivers
// everything already queued after the callback returns.
func (c *Concurrent) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	onDispatcher := c.evq != nil && goid() == c.dispatcherGid.Load()
	if already {
		if onDispatcher {
			return nil
		}
		if c.evq != nil {
			<-c.done
		}
		<-c.closeDone
		return c.closeErr
	}
	if c.evq != nil {
		c.evq.close()
		if !onDispatcher {
			<-c.done
		}
	}
	c.closeErr = c.nw.Close()
	close(c.closeDone)
	return c.closeErr
}

// locked runs a read accessor under the façade lock.
func locked[T any](c *Concurrent, f func(*Network) T) T {
	c.mu.Lock()
	defer c.mu.Unlock()
	return f(c.nw)
}

// The façade satisfies the same public contracts as the plain Network.
var (
	_ Maintainer       = (*Concurrent)(nil)
	_ InvariantChecker = (*Concurrent)(nil)
	_ Coordinated      = (*Concurrent)(nil)
	_ NodeSampler      = (*Concurrent)(nil)
)
