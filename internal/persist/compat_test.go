package persist_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/dex"
)

// serialCheckpointSHA256 is the digest of the checkpoint file that
// writeSerialCheckpoint produces. It was recorded with the engine that
// still had a worker-pool option (checkpoint format stateVersion 1),
// so a mismatch means the on-disk checkpoint image changed.
const serialCheckpointSHA256 = "f29e7f9c6246e6727072d618e309ffb34fc3fe0d1bed9b6e4772357bbddfb68c"

// writeSerialCheckpoint runs a seeded serial durable network through a
// fixed churn schedule, takes an explicit checkpoint, and returns the
// checkpoint file's bytes.
func writeSerialCheckpoint(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	nw := mustNew(t, dex.WithInitialSize(32), dex.WithSeed(17), dex.WithMode(dex.Staggered),
		dex.WithPersistence(dir, dex.WithNoSync(true), dex.WithCheckpointEvery(-1)))
	defer nw.Close()
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 400; i++ {
		var err error
		if rng.Intn(10) < 6 || nw.Size() <= 8 {
			err = nw.Insert(dex.NodeID(1<<32+i), nw.SampleNode(rng))
		} else {
			err = nw.Delete(nw.SampleNode(rng))
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := nw.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("checkpoint-%020d.ckpt", nw.Totals().Steps)))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointImageStable pins the checkpoint bytes of a seeded
// serial run, so a change to the encoder cannot slip through as long
// as old and new code happen to round-trip each other.
func TestCheckpointImageStable(t *testing.T) {
	sum := sha256.Sum256(writeSerialCheckpoint(t))
	if got := hex.EncodeToString(sum[:]); got != serialCheckpointSHA256 {
		t.Fatalf("checkpoint image changed: sha256 %s, want %s", got, serialCheckpointSHA256)
	}
}

// TestResumePendingSeedCheckpoint resumes a directory written by an
// engine that still ran a speculative walk pool (worker width 4, seed
// 1, 32 initial nodes, staggered). Its newest checkpoint, at step 205,
// carries pre-drawn walk seeds that were not yet consumed, and its WAL
// holds 40 more operations that consume them. The resumed network must
// replay those operations (the WAL verifies every seed), continue the
// schedule, and end with the same history root as one serial run of
// the whole schedule.
func TestResumePendingSeedCheckpoint(t *testing.T) {
	const src = "testdata/workers4-pending-seeds"
	ops := readOps(t, filepath.Join(src, "ops.txt"))
	dir := t.TempDir()
	ents, err := os.ReadDir(filepath.Join(src, "state"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, "state", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	common := []dex.Option{dex.WithInitialSize(32), dex.WithSeed(1), dex.WithMode(dex.Staggered)}
	popts := []dex.PersistOption{dex.WithNoSync(true), dex.WithCheckpointEvery(-1)}
	re := mustNew(t, append(common[:len(common):len(common)], dex.WithPersistence(dir, popts...))...)
	defer re.Close()
	if got := re.Totals().Steps; got != len(ops) {
		t.Fatalf("resumed at step %d, want %d (checkpoint 205 + 40 WAL records)", got, len(ops))
	}

	fresh := mustNew(t, append(common[:len(common):len(common)], dex.WithPersistence(t.TempDir(), popts...))...)
	defer fresh.Close()
	for i := range ops {
		if err := applyOp(fresh, &ops[i]); err != nil {
			t.Fatalf("fresh op %d: %v", i, err)
		}
	}
	requireSameNet(t, "resumed vs fresh serial run", fresh, re)

	rng := rand.New(rand.NewSource(3))
	var nextID dex.NodeID = 1 << 32
	driveBoth(t, 200, rng, &nextID, fresh, re)
	requireSameNet(t, "after continuing", fresh, re)
	fr, fs := fresh.LastRoot()
	rr, rs := re.LastRoot()
	if fr != rr || fs != rs {
		t.Fatalf("history roots differ: resumed %x/%d, fresh %x/%d", rr, rs, fr, fs)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// readOps parses an op schedule: one "i <id> <attach>" or "d <id>" per
// line.
func readOps(t *testing.T, path string) []opSpec {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ops []opSpec
	for n, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var op opSpec
		var err error
		switch {
		case strings.HasPrefix(line, "i "):
			_, err = fmt.Sscanf(line, "i %d %d", &op.id, &op.attach)
		case strings.HasPrefix(line, "d "):
			op.kind = 1
			_, err = fmt.Sscanf(line, "d %d", &op.id)
		default:
			err = fmt.Errorf("unknown op")
		}
		if err != nil {
			t.Fatalf("%s:%d: %q: %v", path, n+1, line, err)
		}
		ops = append(ops, op)
	}
	return ops
}
