// Package persist gives a DEX engine durable state: versioned,
// checksummed checkpoints of the full engine snapshot plus an
// append-only, CRC-chained write-ahead log of operations between
// checkpoints. Opening a directory after a crash loads the newest
// checkpoint and replays the WAL suffix, re-executing each logged
// operation with its recorded walk seeds and verifying the produced
// step metrics — recovery either reconstructs the exact pre-crash
// state (up to the durability window of group commit) or fails
// loudly; it never silently diverges.
//
// The package also maintains a Merkle Mountain Range over the per-step
// metrics stream, updated incrementally per operation and persisted in
// checkpoints, so any two replicas that processed the same step
// sequence can compare a single 32-byte root.
//
// The intended client is the dex façade (dex.WithPersistence); the
// types here operate on *core.Network directly so the engine's
// snapshot hooks stay internal.
package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/wire"
)

// Options tunes a Log. The zero value means: checkpoint every 4096
// operations, fsync every operation.
type Options struct {
	// CheckpointEvery is the number of logged operations between
	// automatic checkpoints (0 = 4096, negative = never automatic).
	CheckpointEvery int
	// GroupCommit batches this many operations per WAL write+fsync
	// (0 or 1 = every operation). Operations staged but not yet
	// flushed are lost on crash — the standard group-commit
	// durability window.
	GroupCommit int
	// NoSync skips fsync entirely. Crash safety against process
	// death is retained (the page cache survives); machine death is
	// not. For tests and benchmarks.
	NoSync bool
}

func (o Options) checkpointEvery() int {
	if o.CheckpointEvery == 0 {
		return 4096
	}
	return o.CheckpointEvery
}

func (o Options) groupCommit() int {
	if o.GroupCommit < 1 {
		return 1
	}
	return o.GroupCommit
}

// Log is the durable-state manager for one engine: one directory
// holding checkpoints and the active WAL. Not safe for concurrent
// use; the dex façade serializes access.
type Log struct {
	dir string
	opt Options

	w       *wal
	m       mmr
	ckptEnc wire.Encoder // checkpoint scratch buffer
	leafEnc wire.Encoder // MMR leaf scratch buffer

	lastCkptStep uint64
	opsSinceCkpt int
	closed       bool
}

const walPrefix = "wal-"

func walName(afterStep uint64) string { return fmt.Sprintf("wal-%020d.log", afterStep) }

func walStep(name string) (uint64, bool) {
	if !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, walPrefix), ".log")
	v, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Open prepares directory dir for durable operation. If dir holds no
// prior state it returns (log, nil, nil): the caller builds a fresh
// engine and hands it to Begin. Otherwise it loads the newest
// checkpoint, replays the WAL suffix, writes a fresh post-recovery
// checkpoint, and returns the recovered engine.
func Open(dir string, opt Options) (*Log, *core.Network, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	ckpts, err := listCheckpoints(dir)
	if err != nil {
		return nil, nil, err
	}
	wals, err := listWALs(dir)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{dir: dir, opt: opt}
	if len(ckpts) == 0 {
		if len(wals) > 0 {
			return nil, nil, errCorrupt("wal present without any checkpoint")
		}
		return l, nil, nil
	}
	eng, err := l.recover(ckpts, wals)
	if err != nil {
		return nil, nil, err
	}
	// Recovery ends by re-anchoring: a fresh checkpoint of the
	// recovered state and a new empty WAL, so the append path never
	// has to splice onto a possibly-torn tail.
	if err := l.Begin(eng); err != nil {
		return nil, nil, err
	}
	return l, eng, nil
}

func listWALs(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var steps []uint64
	for _, e := range ents {
		if s, ok := walStep(e.Name()); ok {
			steps = append(steps, s)
		}
	}
	for i := 1; i < len(steps); i++ {
		for j := i; j > 0 && steps[j-1] > steps[j]; j-- {
			steps[j-1], steps[j] = steps[j], steps[j-1]
		}
	}
	return steps, nil
}

// recover loads the newest checkpoint and replays the newest WAL on
// top of it.
func (l *Log) recover(ckpts, wals []uint64) (*core.Network, error) {
	ckptStep := ckpts[len(ckpts)-1]
	step, eng, m, err := readCheckpoint(filepath.Join(l.dir, ckptName(ckptStep)))
	if err != nil {
		return nil, fmt.Errorf("persist: load %s: %w", ckptName(ckptStep), err)
	}
	l.m = *m
	if l.m.count != step {
		return nil, errCorrupt("checkpoint: history digest count disagrees with step")
	}
	// Pick the newest WAL. A crash between checkpoint write and WAL
	// rotation legitimately leaves a WAL anchored at an older
	// checkpoint; records at or before the checkpoint step are
	// skipped during replay.
	if len(wals) == 0 {
		return eng, nil
	}
	walFile := walName(wals[len(wals)-1])
	if wals[len(wals)-1] > step {
		return nil, errCorrupt("wal is newer than every checkpoint")
	}
	if err := l.replay(filepath.Join(l.dir, walFile), eng); err != nil {
		return nil, fmt.Errorf("persist: replay %s: %w", walFile, err)
	}
	return eng, nil
}

// replay re-executes the WAL's intact records against eng. Each
// record's recorded walk seeds and step metrics are compared against
// what the engine actually does — the restored RNG position must
// reproduce the logged randomness exactly.
func (l *Log) replay(path string, eng *core.Network) error {
	var drawn []uint64
	eng.SetSeedObserver(func(s uint64) { drawn = append(drawn, s) })
	defer eng.SetSeedObserver(nil)

	var rec OpRecord
	_, err := readWAL(path, &rec, func(r *OpRecord) error {
		have := eng.Totals().Steps
		if r.Metrics.Step <= have {
			return nil // already covered by the checkpoint
		}
		if r.Metrics.Step != have+1 {
			return errCorrupt(fmt.Sprintf("wal: step gap: engine at %d, record for %d", have, r.Metrics.Step))
		}
		drawn = drawn[:0]
		var opErr error
		switch r.Op {
		case core.OpInsert:
			opErr = eng.Insert(r.ID, r.Attach)
		case core.OpDelete:
			opErr = eng.Delete(r.ID)
		case core.OpBatchInsert:
			opErr = eng.InsertBatch(r.Inserts)
		case core.OpBatchDelete:
			opErr = eng.DeleteBatch(r.Deletes)
		}
		if opErr != nil {
			return fmt.Errorf("persist: replay step %d (%s): %w", r.Metrics.Step, r.Op, opErr)
		}
		if len(drawn) != len(r.Seeds) {
			return errCorrupt(fmt.Sprintf("wal: step %d drew %d walk seeds, log recorded %d",
				r.Metrics.Step, len(drawn), len(r.Seeds)))
		}
		for i := range drawn {
			if drawn[i] != r.Seeds[i] {
				return errCorrupt(fmt.Sprintf("wal: step %d walk seed %d diverged", r.Metrics.Step, i))
			}
		}
		if got := eng.LastStep(); got != r.Metrics {
			return errCorrupt(fmt.Sprintf("wal: step %d metrics diverged:\nreplayed %+v\nlogged   %+v",
				r.Metrics.Step, got, r.Metrics))
		}
		l.m.add(stepLeaf(&l.leafEnc, &r.Metrics))
		return nil
	})
	return err
}

// Begin anchors the log to eng: a durable checkpoint of its current
// state and a fresh WAL. For a fresh directory the caller invokes it
// once with the newly built engine; Open invokes it internally after
// recovery.
func (l *Log) Begin(eng *core.Network) error {
	return l.checkpointAndRotate(eng)
}

// Append stages one operation record, folds its step metrics into the
// history digest, and flushes according to the group-commit setting.
// Steady-state appends allocate nothing.
//
//dexvet:noalloc
func (l *Log) Append(rec *OpRecord) error {
	if l.closed {
		return errClosed
	}
	if l.w == nil {
		return fmt.Errorf("persist: Append before Begin")
	}
	l.m.add(stepLeaf(&l.leafEnc, &rec.Metrics))
	l.w.stage(rec)
	l.opsSinceCkpt++
	if l.w.stagedN >= l.opt.groupCommit() {
		return l.w.flush()
	}
	return nil
}

// CheckpointDue reports whether enough operations have accumulated
// since the last checkpoint for an automatic one.
func (l *Log) CheckpointDue() bool {
	every := l.opt.checkpointEvery()
	return every > 0 && l.opsSinceCkpt >= every
}

// Checkpoint durably snapshots eng now: WAL flushed, checkpoint
// written, WAL rotated, old files pruned.
func (l *Log) Checkpoint(eng *core.Network) error {
	if l.closed {
		return errClosed
	}
	if l.w != nil {
		if err := l.w.flush(); err != nil {
			return err
		}
	}
	return l.checkpointAndRotate(eng)
}

func (l *Log) checkpointAndRotate(eng *core.Network) error {
	step := uint64(eng.Totals().Steps)
	if l.m.count != step {
		return fmt.Errorf("persist: history digest covers %d steps, engine at %d", l.m.count, step)
	}
	if err := writeCheckpoint(l.dir, step, eng, &l.m, &l.ckptEnc, l.opt.NoSync); err != nil {
		return err
	}
	nw, err := createWAL(filepath.Join(l.dir, walName(step)), step, l.opt.NoSync)
	if err != nil {
		return err
	}
	if l.w != nil {
		l.w.close()
	}
	l.w = nw
	l.lastCkptStep = step
	l.opsSinceCkpt = 0
	// Best-effort cleanup of superseded files.
	if ckpts, err := listCheckpoints(l.dir); err == nil {
		pruneCheckpoints(l.dir, ckpts)
	}
	if wals, err := listWALs(l.dir); err == nil {
		for _, s := range wals {
			if s != step {
				os.Remove(filepath.Join(l.dir, walName(s)))
			}
		}
	}
	return nil
}

// Flush forces the staged WAL batch to disk.
func (l *Log) Flush() error {
	if l.closed || l.w == nil {
		return nil
	}
	return l.w.flush()
}

// Root returns the current Merkle Mountain Range root over the
// engine's entire step-metrics history, and the number of steps it
// covers.
func (l *Log) Root() ([32]byte, uint64) { return l.m.root(), l.m.count }

// LastCheckpointStep returns the step covered by the most recent
// durable checkpoint.
func (l *Log) LastCheckpointStep() uint64 { return l.lastCkptStep }

// Close flushes and closes the WAL. The directory remains resumable.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	if l.w == nil {
		return nil
	}
	err := l.w.close()
	l.w = nil
	return err
}

// Crash abandons the log as a crash would: the staged group-commit
// batch is dropped and the file handle closed without flushing.
// Test hook for crash-recovery coverage.
func (l *Log) Crash() {
	if l.closed {
		return
	}
	l.closed = true
	if l.w != nil {
		l.w.dropStaged()
		l.w.f.Close()
		l.w = nil
	}
}

var errClosed = fmt.Errorf("persist: log closed")
