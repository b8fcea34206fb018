package core

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// CheckInvariants validates every structural property the paper
// guarantees. It is O(p + E) and intended for tests and the harness's
// audit mode, not for per-step production use.
//
// Checked invariants:
//
//	(I1) the real graph's internal adjacency is consistent;
//	(I2) Phi is a function onto the node set: simOf and the per-node Sim
//	     sets agree, and every node simulates >= 1 vertex (Definition 2);
//	(I3) loads: load(u) = |Sim(u)| (+ new holdings during staggering),
//	     bounded by 4*zeta steady-state (Lemma 3/5) and 8*zeta during a
//	     staggered rebuild (Lemma 9(a)); the store's mirror and vertex
//	     arenas are coherent (checkCoherence, checkArenas);
//	(I4) the real graph is exactly the contraction of the current virtual
//	     structure under Phi - including, mid-rebuild, the partial new
//	     cycle and its intermediate edges;
//	(I5) the real graph is connected;
//	(I6) the coordinator's |Spare| and |Low| counters match a recount;
//	(I7) p is prime and p >= n (surjectivity requires it);
//	(I8) staggering bookkeeping (effNew, unprocOld, pending) is coherent.
func (nw *Network) CheckInvariants() error { return nw.checkInvariants(true) }

// checkInvariants is CheckInvariants with the I3 load-bound comparison
// optional. Every other property is deterministic bookkeeping; the
// 4*zeta / 8*zeta bounds are the paper's with-high-probability
// guarantees over the walk randomness, which an adversarial random
// source (the fuzzer's biasedSource) legitimately voids through the
// tolerated walk-exhaustion paths. Such runs still must keep the
// structure exact — enforceLoadBounds=false checks exactly that.
//
//dexvet:allow determinism audit-only: any violation fails the check; which of several violations is reported first is immaterial and never feeds back into engine state
func (nw *Network) checkInvariants(enforceLoadBounds bool) error {
	if err := nw.real.Validate(); err != nil {
		return fmt.Errorf("I1: %w", err)
	}
	if err := nw.st.checkCoherence(); err != nil {
		return fmt.Errorf("I3: %w", err)
	}
	if err := nw.st.checkArenas(); err != nil {
		return fmt.Errorf("I3: %w", err)
	}

	// (I2) mapping consistency.
	p := nw.z.P()
	if int64(len(nw.simOf)) != p {
		return fmt.Errorf("I2: simOf length %d != p %d", len(nw.simOf), p)
	}
	for x := int64(0); x < p; x++ {
		if nw.stag != nil && nw.stag.phase == 2 && nw.stag.dropped(x) {
			continue
		}
		u := nw.simOf[x]
		if !nw.st.has(u) {
			return fmt.Errorf("I2: vertex %d mapped to unknown node %d", x, u)
		}
		if !nw.st.simHas(u, x) {
			return fmt.Errorf("I2: vertex %d not in Sim(%d)", x, u)
		}
	}
	counted := 0
	for _, u := range nw.st.nodeList {
		var stray Vertex = -1
		nw.st.simForEach(u, func(x Vertex) bool {
			if nw.simOf[x] != u {
				stray = x
				return false
			}
			return true
		})
		if stray >= 0 {
			return fmt.Errorf("I2: Sim(%d) contains %d owned by %d", u, stray, nw.simOf[stray])
		}
		counted += nw.st.simLen(u)
	}
	if nw.stag == nil && int64(counted) != p {
		return fmt.Errorf("I2: %d vertices assigned, want %d", counted, p)
	}

	// (I3) loads and bounds.
	maxLoad := 4 * nw.cfg.Zeta
	if nw.stag != nil {
		maxLoad = 8 * nw.cfg.Zeta
	}
	for _, u := range nw.st.nodeList {
		want := nw.st.simLen(u)
		if nw.stag != nil {
			want += nw.st.newLen(u)
		}
		if got := nw.st.loadOf(u); got != want {
			return fmt.Errorf("I3: load(%d) = %d, want %d", u, got, want)
		}
		if want < 1 {
			return fmt.Errorf("I3: node %d simulates nothing (surjectivity broken)", u)
		}
		if enforceLoadBounds && want > maxLoad {
			return fmt.Errorf("I3: load(%d) = %d exceeds bound %d", u, want, maxLoad)
		}
	}

	// (I4) real graph = contraction of the virtual structure.
	want := nw.expectedRealGraph()
	if err := graphsEqual(nw.real, want); err != nil {
		return fmt.Errorf("I4: %w", err)
	}

	// (I5) connectivity.
	if !nw.real.Connected() {
		return fmt.Errorf("I5: real graph disconnected (n=%d)", nw.Size())
	}

	// (I6) counter recount.
	spare, low := 0, 0
	for _, u := range nw.st.nodeList {
		l := nw.st.loadOf(u)
		if l >= 2 {
			spare++
		}
		if l <= 2*nw.cfg.Zeta {
			low++
		}
	}
	if spare != nw.nSpare || low != nw.nLow {
		return fmt.Errorf("I6: counters spare=%d/%d low=%d/%d", nw.nSpare, spare, nw.nLow, low)
	}

	// (I7) modulus sanity.
	if int64(nw.Size()) > p {
		return fmt.Errorf("I7: n=%d exceeds p=%d", nw.Size(), p)
	}

	// (I8) staggering bookkeeping.
	if s := nw.stag; s != nil {
		for _, u := range nw.st.nodeList {
			unproc, proj := 0, 0
			nw.st.simForEach(u, func(x Vertex) bool {
				if !s.processedFlag[x] {
					unproc++
					proj += s.projection(x)
				}
				return true
			})
			if got := nw.st.unprocOldOf(u); got != unproc {
				return fmt.Errorf("I8: unprocOld(%d) = %d, want %d", u, got, unproc)
			}
			if got := nw.st.effNewOf(u); got != proj+nw.st.newLen(u) {
				return fmt.Errorf("I8: effNew(%d) = %d, want %d+%d", u, got, proj, nw.st.newLen(u))
			}
		}
		for y, u := range s.newSimOf {
			if u < 0 {
				continue
			}
			if !nw.st.newHas(u, Vertex(y)) {
				return fmt.Errorf("I8: new vertex %d not in NewSim(%d)", y, u)
			}
		}
		for x, pes := range s.pending {
			if s.processedFlag[x] {
				return fmt.Errorf("I8: pending entries on processed vertex %d", x)
			}
			for _, pe := range pes {
				if s.newSimOf[pe.src] < 0 {
					return fmt.Errorf("I8: pending source %d not generated", pe.src)
				}
				if s.newSimOf[pe.dst] >= 0 {
					return fmt.Errorf("I8: pending target %d already generated", pe.dst)
				}
			}
		}
	}
	return nil
}

// --- audit tiers -------------------------------------------------------------

// AuditMode selects how much invariant checking runs after an operation.
type AuditMode int

const (
	// AuditOff performs no checking.
	AuditOff AuditMode = iota
	// AuditSampled verifies node-local invariants for every node the last
	// operation touched (capped) plus a few randomly sampled nodes, and
	// O(1) global counters. Cost tracks the operation's own footprint,
	// not the network size, so it is affordable on every step of a
	// million-node run.
	AuditSampled
	// AuditFull runs the exhaustive O(p + E) CheckInvariants.
	AuditFull
)

func (m AuditMode) String() string {
	switch m {
	case AuditSampled:
		return "sampled"
	case AuditFull:
		return "full"
	}
	return "off"
}

const (
	// auditDirtyCap bounds how many of the last step's dirty nodes a
	// sampled audit re-verifies (type-2 commits dirty O(n) nodes at once).
	auditDirtyCap = 128
	// auditSampleSize is the number of extra uniformly sampled nodes a
	// sampled audit verifies.
	auditSampleSize = 8
)

// Audit verifies the paper's invariants at the cost tier selected by
// mode. AuditFull is CheckInvariants; AuditSampled checks the nodes
// dirtied by the most recent operation (up to auditDirtyCap of them)
// plus auditSampleSize random nodes, using its own random source so the
// recovery algorithm's coin flips are untouched.
func (nw *Network) Audit(mode AuditMode) error {
	switch mode {
	case AuditOff:
		return nil
	case AuditFull:
		return nw.CheckInvariants()
	}
	if err := nw.st.checkCoherence(); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if int64(nw.Size()) > nw.z.P() {
		return fmt.Errorf("audit: n=%d exceeds p=%d", nw.Size(), nw.z.P())
	}
	checked := 0
	var err error
	nw.st.forEachDirty(func(u NodeID) bool {
		if !nw.st.has(u) {
			return true // deleted this step
		}
		if err = nw.CheckNode(u); err != nil {
			return false
		}
		checked++
		return checked < auditDirtyCap
	})
	if err != nil {
		return err
	}
	for i := 0; i < auditSampleSize && len(nw.st.nodeList) > 0; i++ {
		if err := nw.CheckNode(nw.SampleNode(nw.auditRng)); err != nil {
			return err
		}
	}
	return nil
}

// CheckNode verifies every node-local invariant at u: mapping coherence
// (I2), load accounting and bounds (I3), the contraction row — u's real
// edges must equal the contraction of the virtual structure restricted
// to u (I4, node-locally), stagger bookkeeping (I8), and the sampling
// mirror. It costs O(load(u)·log load(u)) — independent of n and p —
// and allocates only on the failure path that formats the error.
func (nw *Network) CheckNode(u NodeID) error {
	if !nw.st.has(u) {
		return fmt.Errorf("audit: unknown node %d", u)
	}
	if i, ok := nw.st.mirrorPos(u); !ok || nw.st.nodeList[i] != u {
		return fmt.Errorf("audit: node %d missing from sampling mirror", u)
	}
	loops, same, stray := nw.wantRow(u)
	if stray >= 0 {
		return fmt.Errorf("audit: Sim(%d) contains %d owned by %d", u, stray, nw.simOf[stray])
	}
	want := nw.st.simLen(u)
	s := nw.stag
	if s != nil {
		var strayNew Vertex = -1
		nw.st.newForEach(u, func(y Vertex) bool {
			if s.newSimOf[y] != u {
				strayNew = y
				return false
			}
			return true
		})
		if strayNew >= 0 {
			return fmt.Errorf("audit: NewSim(%d) contains %d owned by %d", u, strayNew, s.newSimOf[strayNew])
		}
		want += nw.st.newLen(u)
		unproc, proj := 0, 0
		nw.st.simForEach(u, func(x Vertex) bool {
			if !s.processedFlag[x] {
				unproc++
				proj += s.projection(x)
			}
			return true
		})
		if got := nw.st.unprocOldOf(u); got != unproc {
			return fmt.Errorf("audit: unprocOld(%d) = %d, want %d", u, got, unproc)
		}
		if got := nw.st.effNewOf(u); got != proj+nw.st.newLen(u) {
			return fmt.Errorf("audit: effNew(%d) = %d, want %d+%d", u, got, proj, nw.st.newLen(u))
		}
	}
	if got := nw.st.loadOf(u); got != want {
		return fmt.Errorf("audit: load(%d) = %d, want %d", u, got, want)
	}
	if want < 1 {
		return fmt.Errorf("audit: node %d simulates nothing", u)
	}
	maxLoad := 4 * nw.cfg.Zeta
	if s != nil {
		maxLoad = 8 * nw.cfg.Zeta
	}
	if want > maxLoad {
		return fmt.Errorf("audit: load(%d) = %d exceeds bound %d", u, want, maxLoad)
	}
	if same%2 != 0 {
		return fmt.Errorf("audit: node %d has odd self-incidence count %d", u, same)
	}
	if v, got, want, ok := nw.rowMatches(u, loops+same/2); !ok {
		return fmt.Errorf("audit: edge {%d,%d} multiplicity %d, contraction wants %d", u, v, got, want)
	}
	return nil
}

// wantRow collects u's expected real adjacency row — the contraction of
// the virtual structure restricted to edges incident to u — into
// nw.rowScratch, one entry per virtual edge slot, by enumerating the
// edge slots of u's own vertices (old cycle, and, mid-rebuild, generated
// new vertices plus the intermediate edges anchored at u's unprocessed
// old vertices). Slots whose other endpoint is u itself are not
// collected: virtual self-loops are counted in loops, and slots of
// non-loop virtual edges with both endpoints at u in same (each such
// edge is enumerated from both sides, so same must be even and the edge
// count is same/2). The same walk over Sim(u) checks Phi's ownership:
// the first vertex of Sim(u) mapped elsewhere is returned as stray
// (-1 if none), and the row is incomplete in that case. The rules
// mirror expectedRealGraph exactly, which the differential tests
// enforce. It runs in O(load(u)) and never allocates once rowScratch
// has grown to the largest row seen.
//
//dexvet:noalloc
func (nw *Network) wantRow(u NodeID) (loops, same int, stray Vertex) {
	s := nw.stag
	row := nw.rowScratch[:0]
	stray = -1
	add := func(other NodeID) {
		if other == u {
			same++
		} else {
			row = append(row, other)
		}
	}
	nw.st.simForEach(u, func(x Vertex) bool {
		if nw.simOf[x] != u {
			stray = x
			return false
		}
		for _, t := range nw.z.NeighborSlots(x) {
			if t == x {
				loops++ // chord self-loop of the old cycle
				continue
			}
			if s != nil && s.droppedFlag[t] {
				continue
			}
			add(nw.simOf[t])
		}
		if s != nil {
			for _, pe := range s.pending[x] {
				add(s.newSimOf[pe.src]) // intermediate edges anchored at u
			}
		}
		return true
	})
	if s != nil && stray < 0 {
		resolve := func(t Vertex) NodeID {
			if v := s.newSimOf[t]; v >= 0 {
				return v // endpoint generated: direct edge
			}
			return nw.simOf[s.ownerOld(t)] // intermediate edge anchor
		}
		nw.st.newForEach(u, func(y Vertex) bool {
			add(resolve(s.zNew.Succ(y))) // successor edge, owned by y
			if yp := s.zNew.Pred(y); s.newSimOf[yp] >= 0 {
				add(s.newSimOf[yp]) // predecessor's successor edge
			}
			c := s.zNew.Inv(y)
			switch {
			case c == y:
				loops++ // chord self-loop, owned by y
			case y < c:
				add(resolve(c)) // chord owned by the smaller endpoint y
			case s.newSimOf[c] >= 0:
				add(s.newSimOf[c]) // chord owned by generated c
			}
			return true
		})
	}
	nw.rowScratch = row
	return loops, same, stray
}

// rowMatches compares the row wantRow collected, together with self,
// the expected self-loop multiplicity, against u's run in the real
// graph's arena. It sorts the row and merges it with the run (sorted by
// id, one cell per distinct neighbor carrying its multiplicity), so a
// distinct neighbor's expected multiplicity is the length of its run
// of equal row entries.
// On the first disagreement it returns that neighbor with the real and
// the expected multiplicity and ok=false; a neighbor absent on one side
// has multiplicity 0 there. It costs O(load(u)·log load(u)) and never
// allocates.
//
//dexvet:noalloc
func (nw *Network) rowMatches(u NodeID, self int) (v NodeID, got, want int, ok bool) {
	row := nw.rowScratch
	slices.Sort(row)
	i := 0
	ok = true
	nw.real.ForEachNeighbor(u, func(w NodeID, mult int) bool {
		if i < len(row) && row[i] < w {
			return false // row[i] is missing from the run
		}
		n := 0
		if w == u {
			n, self = self, 0
		}
		for ; i < len(row) && row[i] == w; i++ {
			n++
		}
		if mult != n {
			v, got, want, ok = w, mult, n, false
			return false
		}
		return true
	})
	if !ok {
		return v, got, want, ok
	}
	// An unconsumed row entry (past the end of the run, or where the
	// merge stopped early) is an expected neighbor the arena lacks; an
	// unconsumed self is an expected self-loop it lacks.
	if i < len(row) {
		v = row[i]
		for ; i < len(row) && row[i] == v; i++ {
			want++
		}
		return v, 0, want, false
	}
	if self > 0 {
		return u, 0, self, false
	}
	return 0, 0, 0, true
}

// RecomputeGraph rebuilds the real overlay from the virtual structure
// from scratch and returns it: the full-rebuild oracle the differential
// tests and benchmarks compare the incrementally maintained graph
// against. It never mutates the network.
func (nw *Network) RecomputeGraph() *graph.Graph { return nw.expectedRealGraph() }

// expectedRealGraph recomputes the contraction of the current virtual
// structure from scratch (ground truth for I4).
func (nw *Network) expectedRealGraph() *graph.Graph {
	g := graph.New()
	for _, u := range nw.st.nodeList {
		g.AddNode(u)
	}
	s := nw.stag
	p := nw.z.P()
	aliveOld := func(x Vertex) bool {
		return s == nil || !s.droppedFlag[x]
	}
	for x := int64(0); x < p; x++ {
		if !aliveOld(x) {
			continue
		}
		if t := nw.z.Succ(x); aliveOld(t) {
			g.AddEdge(nw.simOf[x], nw.simOf[t])
		}
		if t := nw.z.Inv(x); t >= x && aliveOld(t) {
			g.AddEdge(nw.simOf[x], nw.simOf[t])
		}
	}
	if s == nil {
		return g
	}
	pNew := s.zNew.P()
	for y := int64(0); y < pNew; y++ {
		u := s.newSimOf[y]
		if u < 0 {
			continue
		}
		// Successor edge, owned by y.
		if t := s.zNew.Succ(y); s.newSimOf[t] >= 0 {
			g.AddEdge(u, s.newSimOf[t])
		} else {
			g.AddEdge(u, nw.simOf[s.ownerOld(t)])
		}
		// Chord, owned by the smaller endpoint (self-loops own themselves).
		t := s.zNew.Inv(y)
		switch {
		case t == y:
			g.AddEdge(u, u)
		case y < t && s.newSimOf[t] >= 0:
			g.AddEdge(u, s.newSimOf[t])
		case y < t:
			g.AddEdge(u, nw.simOf[s.ownerOld(t)])
		}
	}
	return g
}

// graphsEqual compares node sets and edge multisets.
func graphsEqual(got, want *graph.Graph) error {
	if got.NumNodes() != want.NumNodes() {
		return fmt.Errorf("node count %d != %d", got.NumNodes(), want.NumNodes())
	}
	for _, u := range want.Nodes() {
		if !got.HasNode(u) {
			return fmt.Errorf("missing node %d", u)
		}
	}
	if got.NumEdges() != want.NumEdges() {
		return fmt.Errorf("edge count %d != %d", got.NumEdges(), want.NumEdges())
	}
	for _, e := range want.Edges() {
		if got.Multiplicity(e.U, e.V) != e.Mult {
			return fmt.Errorf("edge {%d,%d} multiplicity %d != %d",
				e.U, e.V, got.Multiplicity(e.U, e.V), e.Mult)
		}
	}
	return nil
}
