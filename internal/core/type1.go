package core

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/graph"
)

// Insert handles an adversarial insertion (Algorithm 4.2): the adversary
// creates node id and attaches it to the existing node attach. DEX then
// finds a spare virtual vertex via random walks (type-1) or rebuilds the
// virtual graph (type-2) and assigns the new node at least one vertex.
//
//dexvet:mutator
func (nw *Network) Insert(id, attach NodeID) error {
	if nw.st.has(id) || nw.real.HasNode(id) {
		return fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	if !nw.st.has(attach) {
		return fmt.Errorf("%w: attach point %d", ErrUnknownNode, attach)
	}
	nw.beginStep(OpInsert, id)
	// The adversary wires u to v; insertOneOfBatch bootstraps the node
	// with that temporary edge (dropped later unless required by the
	// virtual graph, Alg 4.2 line 3) and runs the recovery ladder — the
	// identical sequence a batch member goes through.
	nw.insertOneOfBatch(InsertSpec{ID: id, Attach: attach})
	nw.afterRecovery(attach)
	nw.endStep()
	return nil
}

// recoverInsert runs the walk/retry/type-2 ladder for an insertion.
// The donor predicate load >= 2 is dense in every phase, so a walk
// resolves in O(1) expected hops. Both endpoint slots arrive from
// insertOneOfBatch (id's from its own bootstrap, attach's resolved once
// for the whole ladder — insertion never deletes nodes, so both survive
// every retry).
func (nw *Network) recoverInsert(id, attach NodeID, idSlot, attachSlot int32) {
	// Degree-capped steady-state fast path. In the dense regime the first
	// walk stops at its own start: steadyInsertStop(attach) reduces to
	// load(attach) >= 2, tested before a single seed bit is consumed or a
	// step is taken. When that outcome is already decided — no rebuild
	// staggered, attach Spare, and its degree under the cap that keeps
	// the commit O(zeta) — short-circuit: consume the serial walk seed
	// (stream + WAL identity), then donate attach's largest vertex
	// through the fully slot-native move, skipping predicate setup,
	// walk-length computation, the walk call, and the exhaustion ladder. History and mapping are byte-identical
	// to the generic path by construction; engine_equiv_test and
	// FuzzChurnTrace enforce it.
	if nw.stag == nil &&
		nw.st.loadAt(attachSlot) >= 2 &&
		nw.real.DistinctDegreeAt(attachSlot) <= 8*nw.cfg.Zeta {
		nw.stopExclude = id // keep the predicate state exactly as insertStop leaves it
		_ = nw.walkSeed()   // 0-step walks draw nothing from the seed
		best := nw.st.simMaxAt(attachSlot)
		if best < 0 {
			panic("core: donor has no vertex")
		}
		nw.fastInserts++
		nw.moveVertexAt(best, attach, id, attachSlot, idSlot)
		return
	}
	stop := nw.insertStop(id)
	for attempt := 0; attempt < nw.cfg.WalkRetryLimit; attempt++ {
		res := nw.runWalkAt(attach, attachSlot, id, stop)
		if res.Hit {
			nw.donateVertexTo(res.End, id)
			return
		}
		nw.step.WalkRetries++
		if nw.cfg.Mode == Staggered {
			// Ask the coordinator (Alg 4.7 line 8): one round trip of
			// shortest-path control messages.
			nw.chargeCoordinatorNotify(attach)
			if nw.stag == nil && float64(nw.nSpare) < 3*nw.cfg.Theta*float64(nw.Size()) {
				if nw.startStagger(inflateDir) {
					nw.step.Recovery = RecoveryInflate
					nw.step.StaggerStarted = true
					stop = nw.insertStop(id) // predicates change under staggering
				}
			}
			continue
		}
		// Simplified mode: flood computeSpare (Alg 4.4), then decide.
		agg := congest.FloodAggregate(nw.real, attach, func(u graph.NodeID) int64 {
			if u != id && nw.st.loadOf(u) >= 2 {
				return 1
			}
			return 0
		})
		nw.step.Rounds += agg.Rounds
		nw.step.Messages += agg.Messages
		nw.step.Floods++
		if float64(agg.Sum) < nw.cfg.Theta*float64(nw.Size()) {
			nw.simplifiedInflate(attach, id)
			nw.step.Recovery = RecoveryInflate
			return
		}
	}
	// The retry cap exists only to surface implementation bugs; fall back
	// to a forced rebuild so the invariants survive even if it trips.
	nw.walkExhaustion++
	nw.simplifiedInflate(attach, id)
	nw.step.Recovery = RecoveryInflate
}

// insertStop returns the walk stop predicate for finding a donor for a
// newly inserted node. Every variant is prebuilt (no per-op closure):
// the excluded newborn flows through nw.stopExclude, and the rebuild
// phase through nw.stagPhase2 — both stable for the ladder's duration.
// Predicates read only slot-indexed columns via the (id, slot) pairs the
// walk hands them, so evaluating one never probes the id→slot map.
func (nw *Network) insertStop(id NodeID) func(NodeID, int32) bool {
	nw.stopExclude = id
	if nw.stag != nil {
		nw.stagPhase2 = nw.stag.phase == 2
		return nw.stagInsertStop
	}
	return nw.steadyInsertStop
}

// donateVertexTo moves one virtual vertex from donor to the new node id.
// In steady state any current-cycle vertex works (we pick the largest, so
// vertex 0 - the coordinator anchor - moves as rarely as possible).
func (nw *Network) donateVertexTo(donor, id NodeID) {
	if nw.stag != nil {
		nw.stag.donate(nw, donor, id)
		return
	}
	best := nw.st.simMax(donor)
	if best < 0 {
		panic("core: donor has no vertex")
	}
	nw.moveVertex(best, id)
}

// Delete handles an adversarial deletion (Algorithm 4.3): node id leaves;
// a surviving neighbor v adopts its virtual vertices and then
// redistributes them via random walks to nodes in Low.
//
//dexvet:mutator
func (nw *Network) Delete(id NodeID) error {
	if !nw.st.has(id) {
		return fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	if nw.Size() <= 4 {
		return ErrTooSmall
	}
	nw.beginStep(OpDelete, id)

	v := nw.survivingNeighbor(id)
	coordLost := nw.simOf[0] == id

	// v attaches all of u's edges to itself: move every vertex u simulated
	// to v (Alg 4.3 line 1).
	orphans := nw.vertexHoldings(id)
	for _, h := range orphans {
		nw.moveHolding(h, v)
	}
	if nw.real.Degree(id) != 0 {
		panic("core: deleted node still has edges after adoption")
	}
	nw.dropLoadEntry(id)
	nw.st.removeNode(id)
	if coordLost {
		// Neighbors transfer the replicated coordinator state to the new
		// simulator of vertex 0 (Alg 4.7 line 2): O(1) messages.
		nw.step.Messages += 2
		nw.step.Rounds++
	}

	nw.redistributeFrom(v, orphans)
	nw.afterRecovery(v)
	nw.endStep()
	return nil
}

// survivingNeighbor picks the smallest distinct neighbor of id. It scans
// the node's arena run in place (ascending order) rather than snapshotting
// a neighbor slice.
func (nw *Network) survivingNeighbor(id NodeID) NodeID {
	found := NodeID(-1)
	nw.real.ForEachNeighbor(id, func(v NodeID, _ int) bool {
		if v != id {
			found = v
			return false
		}
		return true
	})
	if found < 0 {
		panic("core: node has no surviving neighbor")
	}
	return found
}

// holding identifies one virtual vertex a node simulates, in either the
// current cycle or (during staggering) the next one.
type holding struct {
	x     Vertex
	isNew bool
}

// vertexHoldings lists everything id simulates, deterministically
// (ascending per cycle; the store hands both runs back sorted). The
// returned slice aliases a per-network scratch buffer — it is valid
// until the next vertexHoldings call, which the strictly sequential
// delete/redistribute flow guarantees is after its last use.
func (nw *Network) vertexHoldings(id NodeID) []holding {
	hs := nw.holdScratch[:0]
	nw.vertScratch = nw.st.simAppend(id, nw.vertScratch[:0])
	for _, x := range nw.vertScratch {
		hs = append(hs, holding{x: x})
	}
	if nw.stag != nil {
		nw.vertScratch = nw.st.newAppend(id, nw.vertScratch[:0])
		for _, y := range nw.vertScratch {
			hs = append(hs, holding{x: y, isNew: true})
		}
	}
	nw.holdScratch = hs
	return hs
}

func (nw *Network) moveHolding(h holding, to NodeID) {
	if h.isNew {
		nw.moveNewVertex(h.x, to)
	} else {
		nw.moveVertex(h.x, to)
	}
}

// redistributeFrom walks each adopted vertex from v to a node in Low
// (Alg 4.3 lines 2-5), falling back to type-2 deflation per the paper.
// In the dense steady state each walk resolves on a predicate call or
// two.
func (nw *Network) redistributeFrom(v NodeID, orphans []holding) {
	for _, h := range orphans {
		if nw.redistributeOne(v, h) {
			return
		}
	}
}

// redistributeOne runs the full walk/retry/type-2 ladder for a single
// adopted holding. It reports true when a one-step type-2 rebuild fired
// (the rebuild re-homes every remaining orphan, so the caller stops).
func (nw *Network) redistributeOne(v NodeID, h holding) bool {
	stop := nw.holdingStop(h)
	// v's slot survives the ladder (redistribution moves vertices, never
	// deletes nodes), so one resolution covers every retry.
	vSlot, _ := nw.real.SlotOf(v)
	placed := false
	for attempt := 0; attempt < nw.cfg.WalkRetryLimit; attempt++ {
		res := nw.runWalkAt(v, vSlot, -1, stop)
		if res.Hit {
			if res.End != v {
				nw.moveHolding(h, res.End)
			}
			placed = true
			break
		}
		nw.step.WalkRetries++
		if nw.cfg.Mode == Staggered {
			nw.chargeCoordinatorNotify(v)
			if nw.stag == nil && float64(nw.nLow) < 3*nw.cfg.Theta*float64(nw.Size()) {
				if nw.startStagger(deflateDir) {
					nw.step.Recovery = RecoveryDeflate
					nw.step.StaggerStarted = true
					stop = nw.holdingStop(h)
				}
			}
			continue
		}
		agg := congest.FloodAggregate(nw.real, v, func(u graph.NodeID) int64 {
			if nw.st.loadOf(u) <= 2*nw.cfg.Zeta {
				return 1
			}
			return 0
		})
		nw.step.Rounds += agg.Rounds
		nw.step.Messages += agg.Messages
		nw.step.Floods++
		if float64(agg.Sum) < nw.cfg.Theta*float64(nw.Size()) {
			if _, ok := nw.deflationFor(false); ok {
				// simplifiedDeflate rebuilds the whole mapping; the
				// remaining orphans are re-homed by the rebuild itself.
				nw.simplifiedDeflate(v)
				nw.step.Recovery = RecoveryDeflate
				return true
			}
			// No admissible smaller cycle (pNew would undercut n): keep
			// walking; leaving the vertex at v is safe if all retries miss.
		}
	}
	if !placed {
		nw.walkExhaustion++
		// Leaving the vertex at v is always safe (v adopted it); load
		// bounds are restored by the next rebuild.
	}
	return false
}

// holdingStop returns the stop predicate for redistributing one adopted
// holding. The acceptance thresholds are chosen so that every bound the
// paper states survives: recipients stay within Low's slack in steady
// state (Lemma 3(a)), within the 8*zeta union envelope during a rebuild,
// and - crucially - new-cycle holdings only land where the *new* count
// stays below 4*zeta, so the bound holds again the moment the rebuild
// commits (Lemma 9(a) -> Lemma 3(a) handover). Every variant is prebuilt
// in initTracking and reads only slot-indexed columns (loads, new
// counts, effNew) through the walk's (id, slot) pairs.
func (nw *Network) holdingStop(h holding) func(NodeID, int32) bool {
	s := nw.stag
	if s == nil {
		return nw.steadyLowStop // load(u) <= 2*zeta
	}
	if h.isNew {
		return nw.holdNewStop // newLen(u) < 4*zeta && load(u) < 8*zeta-1
	}
	if s.dir == inflateDir {
		if s.phase == 1 {
			// The paper proves |Low| >= theta*n throughout a staggered
			// inflation; the standard threshold applies and the cloud
			// overflow is shed when the vertex is processed.
			return nw.steadyLowStop
		}
		// Inflate phase 2: the old vertex is about to be dropped anyway.
		return nw.inflateP2Stop // load(u) <= 6*zeta
	}
	// Deflation: an old vertex may carry a dominator, so also require
	// headroom in the projected new load.
	return nw.deflateHoldStop // load(u) <= 6*zeta && effNew(u) < 4*zeta
}

// afterRecovery performs the end-of-step bookkeeping shared by insert and
// delete: coordinator counter notification, proactive threshold checks
// and one batch of staggered rebuild progress.
func (nw *Network) afterRecovery(reporter NodeID) {
	nw.chargeCoordinatorNotify(reporter)
	if nw.cfg.Mode == Staggered && nw.stag == nil {
		n := float64(nw.Size())
		if float64(nw.nSpare) < 3*nw.cfg.Theta*n {
			if nw.startStagger(inflateDir) {
				nw.step.StaggerStarted = true
				nw.step.Recovery = RecoveryInflate
			}
		} else if float64(nw.nLow) < 3*nw.cfg.Theta*n {
			if nw.startStagger(deflateDir) {
				nw.step.StaggerStarted = true
				nw.step.Recovery = RecoveryDeflate
			}
		}
	}
	if nw.stag != nil {
		nw.advanceStagger()
	}
}

func sortVertices(vs []Vertex) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}
