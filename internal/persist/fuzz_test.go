package persist_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/dex"
)

// FuzzCrashRecovery is the crash-point fuzzer for the durable-state
// subsystem. Each input picks an engine configuration, a churn
// schedule, a crash point, and a post-crash disk mangling, then
// demands the recovery property: opening the directory either fails
// loudly, or yields a network byte-identical to a fresh oracle run of
// the recovered step prefix — and that network, continued, stays
// byte-identical to the oracle. Silent divergence is the only losing
// outcome.
//
// Input layout: byte 0 seed, byte 1 mode (bit 0; the higher bits once
// picked a worker-pool width and are ignored, so older corpus entries
// still decode), byte 2 group commit, byte 3 checkpoint cadence, byte 4
// crash point, byte 5 mangling; the rest drives the op mix.
func FuzzCrashRecovery(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1, 10, 0, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88})
	f.Add([]byte{7, 1, 8, 3, 40, 0, 0xa0, 0x13, 0x77, 0xfe, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a})
	f.Add([]byte{3, 2, 4, 0, 25, 1, 0x0f, 0xf0, 0x55, 0xaa, 0x99, 0x66, 0xcc, 0x33})
	f.Add([]byte{11, 3, 2, 2, 60, 2, 0xde, 0xad, 0xbe, 0xef, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc})
	f.Add([]byte{5, 1, 16, 1, 0, 0, 0x42})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			t.Skip("header too short")
		}
		seed := int64(data[0])
		mode := dex.Simplified
		if data[1]&1 == 1 {
			mode = dex.Staggered
		}
		groupCommit := 1 + int(data[2]%16)
		checkpointEvery := []int{-1, 1, 8, 32}[data[3]%4]
		mangling := data[4] % 3
		body := data[5:]
		nOps := len(body)
		crashAt := int(data[5]) % (nOps + 1)

		dir := t.TempDir()
		common := []dex.Option{dex.WithInitialSize(16), dex.WithMode(mode), dex.WithSeed(seed)}
		popts := []dex.PersistOption{
			dex.WithCheckpointEvery(checkpointEvery),
			dex.WithGroupCommit(groupCommit),
			dex.WithNoSync(true),
		}
		pnw, err := dex.New(append(common[:len(common):len(common)], dex.WithPersistence(dir, popts...))...)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := dex.New(common...)
		if err != nil {
			t.Fatal(err)
		}
		defer oracle.Close()

		// Resolve and apply the schedule up to the crash point; the
		// resolved ops replay against recovered networks and oracles.
		var nextID dex.NodeID = 1 << 20
		ops := make([]opSpec, 0, nOps)
		for i := 0; i < nOps; i++ {
			op := fuzzOp(oracle, body[i], &nextID)
			if err := applyOp(oracle, &op); err != nil {
				// The engine legitimately rejected it (e.g. the deletion
				// would disconnect the network). Rejected ops never reach
				// the WAL, so they drop out of the schedule on both sides.
				continue
			}
			ops = append(ops, op)
			if len(ops) <= crashAt {
				if err := applyOp(pnw, &op); err != nil {
					t.Fatalf("op %d on persistent: %v", i, err)
				}
			}
		}
		if crashAt > len(ops) {
			crashAt = len(ops)
		}
		pnw.Crash()

		if mangling != 0 {
			mangleTail(t, dir, mangling)
		}

		re, err := dex.New(append(common[:len(common):len(common)], dex.WithPersistence(dir, popts...))...)
		if err != nil {
			if mangling == 0 {
				// A pure crash (no disk corruption) must always recover.
				t.Fatalf("recovery failed without corruption: %v", err)
			}
			return // detected corruption: acceptable outcome
		}
		defer re.Close()

		s := re.Totals().Steps
		if s > crashAt {
			t.Fatalf("recovered %d steps but only %d were applied", s, crashAt)
		}
		if mangling == 0 && s < crashAt-(groupCommit-1) {
			t.Fatalf("recovered %d steps; group commit %d may lose at most %d of %d",
				s, groupCommit, groupCommit-1, crashAt)
		}
		// Recovered state must equal a fresh run of exactly s ops.
		prefix, err := dex.New(common...)
		if err != nil {
			t.Fatal(err)
		}
		defer prefix.Close()
		for i := 0; i < s; i++ {
			if err := applyOp(prefix, &ops[i]); err != nil {
				t.Fatalf("prefix op %d: %v", i, err)
			}
		}
		requireSameNet(t, "recovered vs prefix oracle", prefix, re)
		if err := re.CheckInvariants(); err != nil {
			t.Fatalf("recovered invariants: %v", err)
		}
		// Continue with the remaining schedule: must reconverge with
		// the never-crashed oracle.
		for i := s; i < len(ops); i++ {
			if err := applyOp(re, &ops[i]); err != nil {
				t.Fatalf("continue op %d: %v", i, err)
			}
		}
		requireSameNet(t, "continued vs oracle", oracle, re)
	})
}

// fuzzOp maps one schedule byte to a resolved operation, sampling
// targets from the driving network's current state.
func fuzzOp(nw *dex.Network, b byte, nextID *dex.NodeID) opSpec {
	fresh := func() dex.NodeID { *nextID++; return *nextID }
	arg := rand.New(rand.NewSource(int64(b) * 0x9e37))
	switch k := b % 4; {
	case k == 0 || nw.Size() <= 8:
		return opSpec{kind: 0, id: fresh(), attach: nw.SampleNode(arg)}
	case k == 1:
		return opSpec{kind: 1, id: nw.SampleNode(arg)}
	case k == 2:
		n := 1 + int(b>>2)%5
		specs := make([]dex.InsertSpec, n)
		for i := range specs {
			specs[i] = dex.InsertSpec{ID: fresh(), Attach: nw.SampleNode(arg)}
		}
		return opSpec{kind: 2, specs: specs}
	default:
		return opSpec{kind: 3, ids: []dex.NodeID{nw.SampleNode(arg)}}
	}
}

// mangleTail simulates torn or corrupted trailing writes on the
// newest WAL: mode 1 truncates, mode 2 flips a byte near the end.
func mangleTail(t *testing.T, dir string, mode byte) {
	t.Helper()
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) == 0 {
		return // nothing to mangle (crash before any WAL write)
	}
	wal := wals[len(wals)-1]
	data, err := os.ReadFile(wal)
	if err != nil || len(data) == 0 {
		return
	}
	switch mode {
	case 1:
		if err := os.Truncate(wal, int64(len(data)-min(len(data), 7))); err != nil {
			t.Fatal(err)
		}
	case 2:
		data[len(data)-min(len(data), 13)] ^= 0x20
		if err := os.WriteFile(wal, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
