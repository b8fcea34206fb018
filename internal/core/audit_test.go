package core

import (
	"math/rand"
	"strings"
	"testing"
)

// corruptible returns a churned network plus one of its nodes with at
// least one distinct-neighbor edge to tamper with.
func corruptible(t *testing.T) (*Network, NodeID) {
	t.Helper()
	nw := mustNew(t, 16, DefaultConfig())
	churnQuiet(t, nw, 50)
	for _, u := range nw.Nodes() {
		if nw.real.DistinctDegree(u) > 0 {
			return nw, u
		}
	}
	t.Fatal("no node with edges")
	return nil, 0
}

func TestCheckNodeDetectsMissingEdge(t *testing.T) {
	nw, u := corruptible(t)
	var v NodeID = -1
	for _, w := range nw.real.Neighbors(u) {
		if w != u {
			v = w
			break
		}
	}
	if v < 0 {
		t.Fatal("no distinct neighbor")
	}
	nw.real.RemoveEdge(u, v) // corruption behind the engine's back
	if err := nw.CheckNode(u); err == nil {
		t.Fatal("node-local audit missed a missing edge")
	}
	if err := nw.Audit(AuditFull); err == nil {
		t.Fatal("full audit missed a missing edge")
	}
}

func TestCheckNodeDetectsForeignEdge(t *testing.T) {
	nw, u := corruptible(t)
	nw.real.AddEdge(u, u) // spurious self-loop
	if err := nw.CheckNode(u); err == nil {
		t.Fatal("node-local audit missed a spurious edge")
	}
}

func TestCheckNodeDetectsLoadCorruption(t *testing.T) {
	nw, u := corruptible(t)
	nw.st.corruptLoad(u, 1)
	if err := nw.CheckNode(u); err == nil {
		t.Fatal("node-local audit missed a load mismatch")
	}
}

func TestCheckNodeDetectsMappingCorruption(t *testing.T) {
	nw, u := corruptible(t)
	x := nw.st.simMin(u)
	if x < 0 {
		t.Fatal("node holds no vertex")
	}
	// Point the vertex at a different owner without moving it.
	for _, w := range nw.Nodes() {
		if w != u {
			nw.simOf[x] = w
			break
		}
	}
	if err := nw.CheckNode(u); err == nil {
		t.Fatal("node-local audit missed a Phi corruption")
	}
}

// TestCheckNodeDetectsRaisedMultiplicity adds a parallel copy of an
// existing distinct-neighbor edge: the neighbor is present on both sides
// of the row merge, so only the multiplicity comparison can catch it.
func TestCheckNodeDetectsRaisedMultiplicity(t *testing.T) {
	nw, u := corruptible(t)
	var v NodeID = -1
	nw.real.ForEachNeighbor(u, func(w NodeID, _ int) bool {
		if w != u {
			v = w
			return false
		}
		return true
	})
	if v < 0 {
		t.Fatal("no distinct neighbor")
	}
	nw.real.AddEdge(u, v)
	if err := nw.CheckNode(u); err == nil {
		t.Fatal("node-local audit missed a raised multiplicity")
	}
}

// TestCheckNodeDetectsMissingSelfLoop strips an expected self-loop from
// the arena entirely, so the expected self-loop count is left over
// after the row merge.
func TestCheckNodeDetectsMissingSelfLoop(t *testing.T) {
	nw := mustNew(t, 16, DefaultConfig())
	churnQuiet(t, nw, 50)
	for _, u := range nw.Nodes() {
		if m := nw.real.Multiplicity(u, u); m > 0 {
			nw.real.RemoveEdgeMult(u, u, m)
			if err := nw.CheckNode(u); err == nil {
				t.Fatal("node-local audit missed a removed self-loop")
			}
			return
		}
	}
	t.Fatal("no node with a self-loop")
}

// TestCheckNodeDetectsMissingLastNeighbor removes every copy of u's
// largest-id neighbor while smaller neighbors stay, so the merge
// consumes the whole arena run and the expected neighbor is left in
// the scratch row.
func TestCheckNodeDetectsMissingLastNeighbor(t *testing.T) {
	nw := mustNew(t, 16, DefaultConfig())
	churnQuiet(t, nw, 50)
	for _, u := range nw.Nodes() {
		nbrs := nw.real.Neighbors(u)
		if len(nbrs) < 2 || nbrs[len(nbrs)-1] == u {
			continue
		}
		last := nbrs[len(nbrs)-1]
		nw.real.RemoveEdgeMult(u, last, nw.real.Multiplicity(u, last))
		if err := nw.CheckNode(u); err == nil {
			t.Fatal("node-local audit missed a missing last neighbor")
		}
		return
	}
	t.Fatal("no node whose largest neighbor is distinct")
}

// midStagger drives a staggered network into an inflation and on until
// some node holds generated new vertices and owns an old vertex with
// pending intermediate edges, so CheckNode's NewSim and pending-edge
// branches both have work. It returns that node.
func midStagger(t *testing.T) (*Network, NodeID) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mode = Staggered
	nw := mustNew(t, 256, cfg) // large enough that a rebuild spans many steps
	driveToStagger(t, nw, 4000)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		if active, _ := nw.Rebuilding(); !active {
			break
		}
		for _, u := range nw.Nodes() {
			pending := false
			nw.st.simForEach(u, func(x Vertex) bool {
				pending = len(nw.stag.pending[x]) > 0
				return !pending
			})
			if pending && nw.st.newLen(u) > 0 {
				return nw, u
			}
		}
		nodes := nw.Nodes()
		if err := nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))]); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("no node with both new vertices and pending edges mid-rebuild")
	return nil, 0
}

func TestCheckNodeDetectsCorruptionMidStagger(t *testing.T) {
	nw, u := midStagger(t)
	if err := nw.CheckNode(u); err != nil {
		t.Fatalf("healthy mid-rebuild node: %v", err)
	}
	v := nw.real.Neighbors(u)[0]
	nw.real.AddEdge(u, v)
	if err := nw.CheckNode(u); err == nil {
		t.Fatal("node-local audit missed a corrupted edge mid-rebuild")
	}
}

// TestSampledAuditZeroAllocs pins the sampled audit at zero
// allocations, after steady churn and in the middle of a staggered
// rebuild. Auditing every node once first grows the row scratch to
// the largest row, so the measured runs start from a warm buffer.
func TestSampledAuditZeroAllocs(t *testing.T) {
	steady := mustNew(t, 64, DefaultConfig())
	churnQuiet(t, steady, 300)
	stag, _ := midStagger(t)
	for _, c := range []struct {
		name string
		nw   *Network
	}{{"steady", steady}, {"staggered", stag}} {
		name, nw := c.name, c.nw
		for _, u := range nw.Nodes() {
			if err := nw.CheckNode(u); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := nw.Audit(AuditSampled); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: sampled audit allocates %.2f per call, want 0", name, allocs)
		}
	}
}

// TestSampledAuditChecksDirtyNodes verifies the sampled tier re-verifies
// exactly the nodes the last operation touched: corrupting a node's row
// and then operating on it must trip the next sampled audit.
func TestSampledAuditChecksDirtyNodes(t *testing.T) {
	nw := mustNew(t, 16, DefaultConfig())
	churnQuiet(t, nw, 30)
	if err := nw.Audit(AuditSampled); err != nil {
		t.Fatalf("sampled audit on healthy network: %v", err)
	}
	// Insert attached at a victim, then corrupt the victim's load. The
	// next operation touching it marks it dirty, so the sampled audit
	// must examine it.
	victim := nw.Nodes()[0]
	nw.st.corruptLoad(victim, 1)
	if err := nw.Insert(nw.FreshID(), victim); err != nil {
		t.Fatal(err)
	}
	if err := nw.Audit(AuditSampled); err == nil {
		t.Fatal("sampled audit missed a corrupted dirty node")
	} else if !strings.Contains(err.Error(), "load") {
		t.Fatalf("unexpected audit error: %v", err)
	}
}

func TestAuditOffIsSilent(t *testing.T) {
	nw, u := corruptible(t)
	nw.st.corruptLoad(u, 1) // corrupted on purpose
	if err := nw.Audit(AuditOff); err != nil {
		t.Fatalf("AuditOff reported %v", err)
	}
}

func TestAuditModeStrings(t *testing.T) {
	if AuditOff.String() != "off" || AuditSampled.String() != "sampled" || AuditFull.String() != "full" {
		t.Fatalf("unexpected audit mode strings: %v %v %v", AuditOff, AuditSampled, AuditFull)
	}
}

// TestSampleNodeTracksLiveSet checks the O(1) sampler stays in sync
// with the live node set under churn, including batch deletions.
func TestSampleNodeTracksLiveSet(t *testing.T) {
	nw := mustNew(t, 24, DefaultConfig())
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		if err := traceStep(nw, rng); err != nil {
			t.Fatal(err)
		}
		if len(nw.st.nodeList) != nw.Size() {
			t.Fatalf("step %d: sampler mirror has %d entries, network %d nodes", i, len(nw.st.nodeList), nw.Size())
		}
	}
	live := make(map[NodeID]bool, nw.Size())
	for _, u := range nw.Nodes() {
		live[u] = true
	}
	for i := 0; i < 500; i++ {
		if u := nw.SampleNode(rng); !live[u] {
			t.Fatalf("sampled dead node %d", u)
		}
	}
}

// TestHistoryCapCore checks the ring semantics and Totals at the engine
// level (the dex layer re-tests via options).
func TestHistoryCapCore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HistoryCap = 32
	nw := mustNew(t, 16, cfg)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		nodes := nw.Nodes()
		if err := nw.Insert(nw.FreshID(), nodes[rng.Intn(len(nodes))]); err != nil {
			t.Fatal(err)
		}
	}
	if len(nw.History()) > 32 {
		t.Fatalf("history %d > cap 32", len(nw.History()))
	}
	if nw.Totals().Steps != 200 {
		t.Fatalf("Totals.Steps = %d", nw.Totals().Steps)
	}
	if got := nw.LastStep().Step; got != 200 {
		t.Fatalf("last step numbered %d, want 200", got)
	}
	if _, err := New(16, Config{Zeta: 8, Theta: 1.0 / 64, WalkFactor: 4, WalkRetryLimit: 64, HistoryCap: -1}); err == nil {
		t.Fatal("accepted negative history cap")
	}
}
