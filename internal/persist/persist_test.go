// Package persist_test drives the durable-state subsystem through its
// public surface — the dex façade — so the tests cover exactly what a
// client sees: build-or-resume via WithPersistence, group-commit
// durability windows, crash recovery, and the Merkle history root.
package persist_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/dex"
)

// opSpec is one resolved adversarial operation: arguments are fixed at
// generation time so the same schedule can be replayed against a
// recovered network or a fresh oracle.
type opSpec struct {
	kind   int // 0 insert, 1 delete, 2 batch-insert, 3 batch-delete
	id     dex.NodeID
	attach dex.NodeID
	specs  []dex.InsertSpec
	ids    []dex.NodeID
}

func applyOp(nw *dex.Network, op *opSpec) error {
	switch op.kind {
	case 0:
		return nw.Insert(op.id, op.attach)
	case 1:
		return nw.Delete(op.id)
	case 2:
		return nw.InsertBatch(op.specs)
	default:
		return nw.DeleteBatch(op.ids)
	}
}

// genOp resolves the next operation against the driving network's
// current state. Every generated op succeeds on a network in the same
// state (the caller applies it to all replicas).
func genOp(nw *dex.Network, rng *rand.Rand, nextID *dex.NodeID) opSpec {
	fresh := func() dex.NodeID { *nextID++; return *nextID }
	switch k := rng.Intn(8); {
	case k < 3 || nw.Size() <= 8:
		return opSpec{kind: 0, id: fresh(), attach: nw.SampleNode(rng)}
	case k < 6:
		return opSpec{kind: 1, id: nw.SampleNode(rng)}
	case k < 7:
		n := 2 + rng.Intn(3)
		specs := make([]dex.InsertSpec, n)
		for i := range specs {
			specs[i] = dex.InsertSpec{ID: fresh(), Attach: nw.SampleNode(rng)}
		}
		return opSpec{kind: 2, specs: specs}
	default:
		return opSpec{kind: 3, ids: []dex.NodeID{nw.SampleNode(rng)}}
	}
}

// requireSameNet compares everything the public API exposes.
func requireSameNet(t *testing.T, tag string, a, b *dex.Network) {
	t.Helper()
	if a.P() != b.P() || a.Size() != b.Size() {
		t.Fatalf("%s: shape differs: P %d/%d size %d/%d", tag, a.P(), b.P(), a.Size(), b.Size())
	}
	if a.Totals() != b.Totals() {
		t.Fatalf("%s: totals differ:\n%+v\n%+v", tag, a.Totals(), b.Totals())
	}
	ha, hb := a.History(), b.History()
	if len(ha) != len(hb) || (len(ha) > 0 && !reflect.DeepEqual(ha, hb)) {
		t.Fatalf("%s: histories differ (len %d vs %d)", tag, len(ha), len(hb))
	}
	if !reflect.DeepEqual(a.Nodes(), b.Nodes()) {
		t.Fatalf("%s: node sets differ", tag)
	}
	if !reflect.DeepEqual(a.Graph().Edges(), b.Graph().Edges()) {
		t.Fatalf("%s: overlay edges differ", tag)
	}
	for _, u := range a.Nodes() {
		if a.Load(u) != b.Load(u) {
			t.Fatalf("%s: load of %d differs: %d vs %d", tag, u, a.Load(u), b.Load(u))
		}
	}
	if a.Coordinator() != b.Coordinator() {
		t.Fatalf("%s: coordinators differ", tag)
	}
	aAct, aPh := a.Rebuilding()
	bAct, bPh := b.Rebuilding()
	if aAct != bAct || aPh != bPh {
		t.Fatalf("%s: rebuild state differs", tag)
	}
}

// driveBoth generates steps ops on a (recording them), applying each
// to every network in more as well, and requires them to stay
// identical step for step.
func driveBoth(t *testing.T, steps int, rng *rand.Rand, nextID *dex.NodeID, a *dex.Network, more ...*dex.Network) []opSpec {
	t.Helper()
	ops := make([]opSpec, 0, steps)
	for i := 0; i < steps; i++ {
		op := genOp(a, rng, nextID)
		if err := applyOp(a, &op); err != nil {
			t.Fatalf("op %d on primary: %v", i, err)
		}
		for j, nw := range more {
			if err := applyOp(nw, &op); err != nil {
				t.Fatalf("op %d on replica %d: %v", i, j, err)
			}
			if a.LastStep() != nw.LastStep() {
				t.Fatalf("op %d: replica %d metrics diverged", i, j)
			}
		}
		ops = append(ops, op)
	}
	return ops
}

func mustNew(t *testing.T, opts ...dex.Option) *dex.Network {
	t.Helper()
	nw, err := dex.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestReopenMatchesUncrashedTwin: a cleanly closed durable network,
// reopened, is indistinguishable from a plain network that ran the
// same schedule without interruption — and keeps matching it under
// continued identical churn.
func TestReopenMatchesUncrashedTwin(t *testing.T) {
	for _, mode := range []dex.Mode{dex.Simplified, dex.Staggered} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			dir := t.TempDir()
			common := []dex.Option{dex.WithInitialSize(48), dex.WithMode(mode), dex.WithSeed(17)}
			pnw := mustNew(t, append(common[:len(common):len(common)],
				dex.WithPersistence(dir, dex.WithCheckpointEvery(16), dex.WithGroupCommit(4), dex.WithNoSync(true)))...)
			twin := mustNew(t, common...)

			rng := rand.New(rand.NewSource(5))
			var nextID dex.NodeID = 1 << 32
			driveBoth(t, 200, rng, &nextID, twin, pnw)
			rootBefore, stepsBefore := pnw.LastRoot()
			if stepsBefore != uint64(twin.Totals().Steps) {
				t.Fatalf("root covers %d steps, engine at %d", stepsBefore, twin.Totals().Steps)
			}
			if err := pnw.Close(); err != nil {
				t.Fatal(err)
			}

			re := mustNew(t, append(common[:len(common):len(common)],
				dex.WithPersistence(dir, dex.WithCheckpointEvery(16), dex.WithGroupCommit(4), dex.WithNoSync(true)))...)
			defer re.Close()
			requireSameNet(t, "after reopen", twin, re)
			if root, steps := re.LastRoot(); root != rootBefore || steps != stepsBefore {
				t.Fatalf("history root changed across reopen: %x/%d vs %x/%d", root, steps, rootBefore, stepsBefore)
			}
			driveBoth(t, 150, rng, &nextID, twin, re)
			if err := re.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashRecoveryGroupCommit: with group commit, a crash loses at
// most the staged tail; recovery reconstructs the exact durable
// prefix, and re-applying the lost suffix reconverges with a network
// that never crashed. Exercised in both recovery modes. (The "/w1"
// suffix names the serial width these subtests always ran at; it is
// kept so the subtest names stay stable.)
func TestCrashRecoveryGroupCommit(t *testing.T) {
	const nOps = 180
	for _, mode := range []dex.Mode{dex.Simplified, dex.Staggered} {
		t.Run(fmt.Sprintf("%v/w1", mode), func(t *testing.T) {
			dir := t.TempDir()
			common := []dex.Option{dex.WithInitialSize(48), dex.WithMode(mode), dex.WithSeed(23)}
			popts := []dex.PersistOption{dex.WithCheckpointEvery(64), dex.WithGroupCommit(8), dex.WithNoSync(true)}
			pnw := mustNew(t, append(common[:len(common):len(common)], dex.WithPersistence(dir, popts...))...)
			oracle := mustNew(t, common...)
			defer oracle.Close()

			rng := rand.New(rand.NewSource(31))
			var nextID dex.NodeID = 1 << 32
			ops := driveBoth(t, nOps, rng, &nextID, oracle, pnw)
			pnw.Crash()

			re := mustNew(t, append(common[:len(common):len(common)], dex.WithPersistence(dir, popts...))...)
			defer re.Close()
			s := re.Totals().Steps
			if s > nOps || s < nOps-7 {
				t.Fatalf("recovered %d steps; want within group-commit window [%d, %d]", s, nOps-7, nOps)
			}
			// The recovered state must equal a fresh oracle run of
			// exactly the durable prefix.
			prefix := mustNew(t, common...)
			defer prefix.Close()
			for i := 0; i < s; i++ {
				if err := applyOp(prefix, &ops[i]); err != nil {
					t.Fatalf("prefix op %d: %v", i, err)
				}
			}
			requireSameNet(t, "recovered vs durable prefix", prefix, re)

			// Re-apply the lost tail: the recovered network must
			// reconverge with the never-crashed oracle, root and all.
			for i := s; i < len(ops); i++ {
				if err := applyOp(re, &ops[i]); err != nil {
					t.Fatalf("reapply op %d: %v", i, err)
				}
			}
			requireSameNet(t, "after tail reapply", oracle, re)
			if err := re.CheckInvariants(); err != nil {
				t.Fatal(err)
			}

			// The Merkle root over the full history must match a run
			// that never crashed.
			clean := mustNew(t, append(common[:len(common):len(common)],
				dex.WithPersistence(t.TempDir(), popts...))...)
			defer clean.Close()
			for i := range ops {
				if err := applyOp(clean, &ops[i]); err != nil {
					t.Fatalf("clean op %d: %v", i, err)
				}
			}
			cr, cs := clean.LastRoot()
			rr, rs := re.LastRoot()
			if cr != rr || cs != rs {
				t.Fatalf("history roots diverged across crash: %x/%d vs %x/%d", rr, rs, cr, cs)
			}
		})
	}
}

// TestTornTailTruncated: physically mangling the WAL tail — the
// on-disk artifact of a torn write — must never poison recovery: the
// intact prefix is recovered, the mangled tail discarded.
func TestTornTailTruncated(t *testing.T) {
	for _, mangle := range []string{"truncate", "flip"} {
		t.Run(mangle, func(t *testing.T) {
			dir := t.TempDir()
			popts := []dex.PersistOption{dex.WithCheckpointEvery(-1), dex.WithGroupCommit(1), dex.WithNoSync(true)}
			common := []dex.Option{dex.WithInitialSize(32), dex.WithSeed(41)}
			pnw := mustNew(t, append(common[:len(common):len(common)], dex.WithPersistence(dir, popts...))...)
			oracle := mustNew(t, common...)
			defer oracle.Close()
			rng := rand.New(rand.NewSource(43))
			var nextID dex.NodeID = 1 << 32
			ops := driveBoth(t, 60, rng, &nextID, oracle, pnw)
			pnw.Crash()

			wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			if err != nil || len(wals) == 0 {
				t.Fatalf("no wal found: %v", err)
			}
			wal := wals[len(wals)-1]
			fi, err := os.Stat(wal)
			if err != nil {
				t.Fatal(err)
			}
			switch mangle {
			case "truncate":
				if err := os.Truncate(wal, fi.Size()-11); err != nil {
					t.Fatal(err)
				}
			case "flip":
				data, err := os.ReadFile(wal)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)-20] ^= 0x40
				if err := os.WriteFile(wal, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			re := mustNew(t, append(common[:len(common):len(common)], dex.WithPersistence(dir, popts...))...)
			defer re.Close()
			s := re.Totals().Steps
			if s >= len(ops) || s == 0 {
				t.Fatalf("recovered %d steps of %d; mangled tail should cost some, not all", s, len(ops))
			}
			prefix := mustNew(t, common...)
			defer prefix.Close()
			for i := 0; i < s; i++ {
				if err := applyOp(prefix, &ops[i]); err != nil {
					t.Fatal(err)
				}
			}
			requireSameNet(t, "recovered vs prefix", prefix, re)
		})
	}
}

// TestResumeRejectsMismatchedOptions: resuming with a different
// engine configuration is refused instead of silently diverging, and
// WithRNG cannot combine with persistence at all.
func TestResumeRejectsMismatchedOptions(t *testing.T) {
	dir := t.TempDir()
	pnw := mustNew(t, dex.WithInitialSize(32), dex.WithZeta(8),
		dex.WithPersistence(dir, dex.WithNoSync(true)))
	if err := pnw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := dex.New(dex.WithInitialSize(32), dex.WithZeta(4),
		dex.WithPersistence(dir, dex.WithNoSync(true))); err == nil {
		t.Fatal("mismatched zeta accepted on resume")
	}
	re, err := dex.New(dex.WithInitialSize(32), dex.WithZeta(8),
		dex.WithPersistence(dir, dex.WithNoSync(true)))
	if err != nil {
		t.Fatalf("matching options rejected on resume: %v", err)
	}
	re.Close()
	if _, err := dex.New(dex.WithRNG(rand.New(rand.NewSource(1))),
		dex.WithPersistence(t.TempDir(), dex.WithNoSync(true))); err == nil {
		t.Fatal("WithRNG + WithPersistence accepted")
	}
}

// TestConcurrentFacadePersists: commits serialize through the façade
// lock; a Concurrent network's directory resumes to the same state.
func TestConcurrentFacadePersists(t *testing.T) {
	dir := t.TempDir()
	common := []dex.Option{dex.WithInitialSize(32), dex.WithSeed(3)}
	c, err := dex.NewConcurrent(append(common[:len(common):len(common)],
		dex.WithPersistence(dir, dex.WithGroupCommit(4), dex.WithNoSync(true)))...)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 80; i++ {
		if i%3 == 2 && c.Size() > 8 {
			if err := c.Delete(c.SampleNode(rng)); err != nil {
				t.Fatal(err)
			}
		} else if err := c.Insert(c.FreshID(), c.SampleNode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	root, steps := c.LastRoot()
	tot := c.Totals()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	re := mustNew(t, append(common[:len(common):len(common)],
		dex.WithPersistence(dir, dex.WithNoSync(true)))...)
	defer re.Close()
	if re.Totals() != tot {
		t.Fatalf("resumed totals differ:\n%+v\n%+v", re.Totals(), tot)
	}
	if r2, s2 := re.LastRoot(); r2 != root || s2 != steps {
		t.Fatal("resumed history root differs")
	}
}

// TestScaleCheckpointResume restores a 10^5-node network from its
// checkpoint and continues it under the differential oracle.
func TestScaleCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("10^5-node growth takes a while")
	}
	dir := t.TempDir()
	common := []dex.Option{dex.WithInitialSize(64), dex.WithSeed(7), dex.WithHistoryCap(256)}
	popts := []dex.PersistOption{dex.WithCheckpointEvery(-1), dex.WithGroupCommit(64), dex.WithNoSync(true)}
	pnw := mustNew(t, append(common[:len(common):len(common)], dex.WithPersistence(dir, popts...))...)
	twin := mustNew(t, common...)
	defer twin.Close()

	// Grow both to 10^5 nodes with identical batched inserts.
	var nextID dex.NodeID = 1 << 32
	rng := rand.New(rand.NewSource(13))
	for twin.Size() < 100_000 {
		k := 100_000 - twin.Size()
		if k > 512 {
			k = 512
		}
		nodes := twin.Nodes()
		specs := make([]dex.InsertSpec, k)
		for i := range specs {
			nextID++
			specs[i] = dex.InsertSpec{ID: nextID, Attach: nodes[i%len(nodes)]}
		}
		if err := twin.InsertBatch(specs); err != nil {
			t.Fatal(err)
		}
		if err := pnw.InsertBatch(specs); err != nil {
			t.Fatal(err)
		}
	}
	if err := pnw.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pnw.Crash() // drop without flushing anything past the checkpoint

	re := mustNew(t, append(common[:len(common):len(common)], dex.WithPersistence(dir, popts...))...)
	defer re.Close()
	if re.Size() != twin.Size() || re.Totals() != twin.Totals() {
		t.Fatalf("restored scale run differs: size %d vs %d", re.Size(), twin.Size())
	}
	// Continue both under churn and spot-check equality.
	driveBoth(t, 300, rng, &nextID, twin, re)
	requireSameNet(t, "after continued churn at scale", twin, re)
}

// TestWALAppendZeroAllocsSteadyState is the durability analogue of the
// engine's recovery-path alloc gate: once warm, logging an operation —
// framing, checksumming, Merkle leaf, group-commit write — must not
// allocate. NoSync isolates allocation behavior from fsync latency;
// the byte path is identical.
func TestWALAppendZeroAllocsSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is a few thousand ops")
	}
	dir := t.TempDir()
	nw := mustNew(t, dex.WithInitialSize(64), dex.WithSeed(11), dex.WithHistoryCap(128),
		dex.WithPersistence(dir, dex.WithCheckpointEvery(-1), dex.WithGroupCommit(1), dex.WithNoSync(true)))
	defer nw.Close()
	rng := rand.New(rand.NewSource(19))
	var nextID dex.NodeID = 1 << 32
	for nw.Size() < 4096 {
		nextID++
		if err := nw.Insert(nextID, nw.SampleNode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 512; i++ {
		if err := nw.Delete(nw.SampleNode(rng)); err != nil {
			t.Fatal(err)
		}
		nextID++
		if err := nw.Insert(nextID, nw.SampleNode(rng)); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(400, func() {
		if err := nw.Delete(nw.SampleNode(rng)); err != nil {
			t.Fatal(err)
		}
		nextID++
		if err := nw.Insert(nextID, nw.SampleNode(rng)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state logged delete+insert allocates %.2f per pair, want 0", allocs)
	}
}

// BenchmarkWALAppend prices one logged steady-state operation pair
// against the engine's unlogged BenchmarkRecoveryOp baseline.
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	nw, err := dex.New(dex.WithInitialSize(64), dex.WithSeed(11), dex.WithHistoryCap(128),
		dex.WithPersistence(dir, dex.WithCheckpointEvery(-1), dex.WithGroupCommit(1), dex.WithNoSync(true)))
	if err != nil {
		b.Fatal(err)
	}
	defer nw.Close()
	rng := rand.New(rand.NewSource(19))
	var nextID dex.NodeID = 1 << 32
	for nw.Size() < 4096 {
		nextID++
		if err := nw.Insert(nextID, nw.SampleNode(rng)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nw.Delete(nw.SampleNode(rng)); err != nil {
			b.Fatal(err)
		}
		nextID++
		if err := nw.Insert(nextID, nw.SampleNode(rng)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpoint prices one full durable checkpoint (snapshot
// encode + digest + write + rotate) at steady size.
func BenchmarkCheckpoint(b *testing.B) {
	dir := b.TempDir()
	nw, err := dex.New(dex.WithInitialSize(64), dex.WithSeed(11), dex.WithHistoryCap(128),
		dex.WithPersistence(dir, dex.WithCheckpointEvery(-1), dex.WithGroupCommit(1), dex.WithNoSync(true)))
	if err != nil {
		b.Fatal(err)
	}
	defer nw.Close()
	rng := rand.New(rand.NewSource(19))
	var nextID dex.NodeID = 1 << 32
	for nw.Size() < 4096 {
		nextID++
		if err := nw.Insert(nextID, nw.SampleNode(rng)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nw.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}
