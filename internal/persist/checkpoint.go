package persist

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/wire"
)

// Checkpoint format:
//
//	magic "DEXCKPT1" | u32 version | u64 step | u64 payloadLen |
//	sha256(payload) | payload
//
// payload = engine snapshot (core.AppendState) followed by the MMR
// accumulator, so a checkpoint alone is enough to resume both the
// engine and the history digest. Files are written tmp + fsync +
// rename + directory fsync, so a crash leaves either the old set or
// the old set plus one complete new file — never a half-written
// checkpoint under the final name. The digest catches anything the
// filesystem got wrong anyway.
const (
	ckptMagic     = "DEXCKPT1"
	ckptVersion   = 1
	ckptHeaderLen = 8 + 4 + 8 + 8 + sha256.Size
	ckptKeep      = 2 // checkpoints retained after a successful write
)

func ckptName(step uint64) string { return fmt.Sprintf("checkpoint-%020d.ckpt", step) }

// ckptStep parses the step out of a checkpoint file name, reporting
// whether the name is a checkpoint at all.
func ckptStep(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".ckpt") {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".ckpt")
	v, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// writeCheckpoint durably writes the engine + MMR snapshot for step.
func writeCheckpoint(dir string, step uint64, eng *core.Network, m *mmr, enc *wire.Encoder, noSync bool) error {
	enc.Reset()
	enc.Raw([]byte(ckptMagic))
	enc.U32(ckptVersion)
	enc.U64(step)
	enc.U64(0)                         // payload length, patched below
	enc.Raw(make([]byte, sha256.Size)) // digest, patched below

	payloadStart := enc.Len()
	if err := eng.AppendState(enc); err != nil {
		return fmt.Errorf("persist: snapshot engine: %w", err)
	}
	m.appendBinary(enc)
	buf := enc.Bytes()
	payload := buf[payloadStart:]
	le64(buf[8+4+8:], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(buf[8+4+8+8:payloadStart], sum[:])

	final := filepath.Join(dir, ckptName(step))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if !noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	if !noSync {
		if err := syncDir(dir); err != nil {
			return err
		}
	}
	return nil
}

func le64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// readCheckpoint loads and verifies one checkpoint file, returning
// the restored engine and MMR.
func readCheckpoint(path string) (uint64, *core.Network, *mmr, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, nil, err
	}
	if len(data) < ckptHeaderLen {
		return 0, nil, nil, errCorrupt("checkpoint: short header")
	}
	if string(data[:8]) != ckptMagic {
		return 0, nil, nil, errCorrupt("checkpoint: bad magic")
	}
	hdec := wire.NewDecoder(data[8:ckptHeaderLen])
	if v := hdec.U32(); v != ckptVersion {
		return 0, nil, nil, errCorrupt(fmt.Sprintf("checkpoint: unsupported version %d", v))
	}
	step := hdec.U64()
	plen := hdec.U64()
	if plen != uint64(len(data)-ckptHeaderLen) {
		return 0, nil, nil, errCorrupt("checkpoint: payload length mismatch")
	}
	payload := data[ckptHeaderLen:]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(data[8+4+8+8:ckptHeaderLen]) {
		return 0, nil, nil, errCorrupt("checkpoint: digest mismatch")
	}
	dec := wire.NewDecoder(payload)
	eng, err := core.RestoreNetwork(dec)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("persist: restore engine: %w", err)
	}
	m := &mmr{}
	if err := m.decodeBinary(dec); err != nil {
		return 0, nil, nil, err
	}
	if dec.Remaining() != 0 {
		return 0, nil, nil, errCorrupt("checkpoint: trailing bytes")
	}
	if got := uint64(eng.Totals().Steps); got != step {
		return 0, nil, nil, errCorrupt(fmt.Sprintf("checkpoint: header step %d vs engine step %d", step, got))
	}
	return step, eng, m, nil
}

// listCheckpoints returns the checkpoint steps present in dir,
// ascending.
func listCheckpoints(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var steps []uint64
	for _, e := range ents {
		if s, ok := ckptStep(e.Name()); ok {
			steps = append(steps, s)
		}
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] < steps[j] })
	return steps, nil
}

// pruneCheckpoints deletes all but the newest ckptKeep checkpoints.
// Best-effort: a leftover file is wasted space, not a hazard.
func pruneCheckpoints(dir string, steps []uint64) {
	if len(steps) <= ckptKeep {
		return
	}
	for _, s := range steps[:len(steps)-ckptKeep] {
		os.Remove(filepath.Join(dir, ckptName(s)))
	}
}
