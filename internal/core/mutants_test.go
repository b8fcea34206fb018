//go:build mutants

package core

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// This file is the engine's mutation harness (make mutants). It seeds
// one fault at a time into a source file of this package, in a private
// copy of the module, and requires the ordinary short test suites of
// internal/core and internal/persist to fail on each. The store.go
// mutants are the standing evidence that the state store needs no
// second, differential backend: the engine's own checks
// (CheckInvariants, the audits, the golden digests, the checkpoint
// image pin, and the narrow store tests) catch every fault. The
// invariant.go mutants keep the audit honest in turn: each disables one
// comparison of CheckNode's contraction-row merge, and the audit tests
// must notice.
//
// Each mutant is an exact-once string replacement. An anchor that
// matches zero or several times fails the harness itself, so an edit
// to a target file cannot turn a mutant into a silent no-op.

// mutant replaces old with new in file.
type mutant struct {
	name     string
	file     string
	old, new string
}

var mutants = []mutant{
	{
		name: "setAdd-shift-stops-one-early",
		file: "store.go",
		old:  "for j > 0 && run[j-1] > x {",
		new:  "for j > 1 && run[j-1] > x {",
	},
	{
		name: "setRemove-shift-drops-tail-cell",
		file: "store.go",
		old:  "copy(run[j:], run[j+1:])",
		new:  "copy(run[j:], run[j+1:v.n-1])",
	},
	{
		name: "setAdd-grows-without-headroom",
		file: "store.go",
		old:  "newOff, got := sh.arena.alloc(sh.runCap(v.n + 1))",
		new:  "newOff, got := sh.arena.alloc(sh.runCap(v.n))",
	},
	{
		name: "runCap-steady-class-too-small",
		file: "store.go",
		old:  "case n <= 8:\n\t\treturn 8",
		new:  "case n <= 8:\n\t\treturn 4",
	},
	{
		name: "alloc-reuses-run-without-pop",
		file: "store.go",
		old:  "a.free[class] = fl[:len(fl)-1]",
		new:  "a.free[class] = fl",
	},
	{
		name: "alloc-skips-free-cell-debit",
		file: "store.go",
		old:  "\t\t\ta.freeCells -= int(got)\n",
		new:  "",
	},
	{
		name: "release-wrong-free-list-class",
		file: "store.go",
		old:  "class := int(capn / 4)\n\tfor len(a.free) <= class {",
		new:  "class := int(capn / 8)\n\tfor len(a.free) <= class {",
	},
	{
		name: "split-tail-offset-overlaps-grant",
		file: "store.go",
		old:  "a.release(off+capn, rem)",
		new:  "a.release(off+capn-4, rem)",
	},
	{
		name: "split-keeps-oversized-grant",
		file: "store.go",
		old:  "a.release(off+capn, rem)\n\t\t\t\tgot = capn",
		new:  "a.release(off+capn, rem)",
	},
	{
		name: "compaction-skips-nxt",
		file: "store.go",
		old:  "\t\trepack(&sh.nxt[i])\n",
		new:  "",
	},
	{
		name: "compaction-keeps-stale-free-lists",
		file: "store.go",
		old:  "a.free[i] = a.free[i][:0]",
		new:  "_ = a.free[i]",
	},
	{
		name: "setReset-keeps-short-run",
		file: "store.go",
		old:  "if v.cap < newCap {",
		new:  "if v.cap < newCap-8 {",
	},
	{
		name: "simReset-skips-sort",
		file: "store.go",
		old:  "\tsortVertices(vs)\n",
		new:  "",
	},
	{
		name: "resetDirty-skips-generation-bump",
		file: "store.go",
		old:  "\tst.dirtyGen++\n",
		new:  "",
	},
	{
		name: "resetDirty-keeps-dirty-list",
		file: "store.go",
		old:  "\tst.dirtyList = st.dirtyList[:0]\n",
		new:  "",
	},
	{
		name: "markDirtySlot-stamp-test-inverted",
		file: "store.go",
		old:  "if sh.dirtyAt[i] != st.dirtyGen {",
		new:  "if sh.dirtyAt[i] == st.dirtyGen {",
	},
	{
		name: "addNode-mirror-position-off-by-one",
		file: "store.go",
		old:  "sh.pos[i] = int32(len(st.nodeList))",
		new:  "sh.pos[i] = int32(len(st.nodeList)) + 1",
	},
	{
		name: "mirrorRemove-leaves-moved-position-stale",
		file: "store.go",
		old:  "\tsh, si = st.shardOf(s)\n\tsh.pos[si] = i\n",
		new:  "\tsh, si = st.shardOf(s)\n\t_ = si\n",
	},
	{
		name: "restoreMirror-position-off-by-one",
		file: "store.go",
		old:  "sh.pos[si] = int32(i)",
		new:  "sh.pos[si] = int32(i + 1)",
	},
	{
		name: "promoteNew-leaks-old-run",
		file: "store.go",
		old:  "\tsh.arena.release(sh.sim[i].off, sh.sim[i].cap)\n\tsh.sim[i] = sh.nxt[i]",
		new:  "\tsh.sim[i] = sh.nxt[i]",
	},
	{
		name: "promoteNew-keeps-stagger-counters",
		file: "store.go",
		old:  "\tsh.nxt[i] = vset{}\n\tsh.effNew[i], sh.unprocOld[i] = 0, 0\n",
		new:  "\tsh.nxt[i] = vset{}\n",
	},
	{
		name: "slotReleased-leaks-sim-run",
		file: "store.go",
		old:  "\tsh.arena.release(sh.sim[i].off, sh.sim[i].cap)\n\tsh.arena.release(sh.nxt[i].off, sh.nxt[i].cap)\n",
		new:  "\tsh.arena.release(sh.nxt[i].off, sh.nxt[i].cap)\n",
	},
	{
		name: "addEffNew-wrong-sign",
		file: "store.go",
		old:  "sh.effNew[i] += int32(d)",
		new:  "sh.effNew[i] -= int32(d)",
	},
	{
		name: "setHas-stops-on-smaller",
		file: "store.go",
		old:  "if y > x {\n\t\t\t\tbreak",
		new:  "if y < x {\n\t\t\t\tbreak",
	},
	{
		name: "setMin-returns-max",
		file: "store.go",
		old:  "return r[0]",
		new:  "return r[len(r)-1]",
	},
	{
		name: "setMax-returns-min",
		file: "store.go",
		old:  "func (st *state) setMax(u NodeID, nxt bool) Vertex {\n\tif s, ok := st.g.SlotOf(u); ok {\n\t\tsh, i := st.shardOf(s)\n\t\tif r := sh.run(sh.col(nxt), i); len(r) > 0 {\n\t\t\treturn r[len(r)-1]",
		new:  "func (st *state) setMax(u NodeID, nxt bool) Vertex {\n\tif s, ok := st.g.SlotOf(u); ok {\n\t\tsh, i := st.shardOf(s)\n\t\tif r := sh.run(sh.col(nxt), i); len(r) > 0 {\n\t\t\treturn r[0]",
	},
	{
		name: "setMaxAt-returns-min",
		file: "store.go",
		old:  "func (st *state) setMaxAt(s int32, nxt bool) Vertex {\n\tsh, i := st.shardOf(s)\n\tif r := sh.run(sh.col(nxt), i); len(r) > 0 {\n\t\treturn r[len(r)-1]",
		new:  "func (st *state) setMaxAt(s int32, nxt bool) Vertex {\n\tsh, i := st.shardOf(s)\n\tif r := sh.run(sh.col(nxt), i); len(r) > 0 {\n\t\treturn r[0]",
	},
	{
		name: "rowMatches-ignores-multiplicity",
		file: "invariant.go",
		old:  "if mult != n {",
		new:  "if n == 0 {",
	},
	{
		name: "rowMatches-drops-leftover-row",
		file: "invariant.go",
		old:  "\tif i < len(row) {\n\t\tv = row[i]\n",
		new:  "\tif false {\n\t\tv = row[i]\n",
	},
	{
		name: "rowMatches-drops-expected-self-loops",
		file: "invariant.go",
		old:  "\tif self > 0 {\n\t\treturn u, 0, self, false",
		new:  "\tif false {\n\t\treturn u, 0, self, false",
	},
}

// failedTest matches the top-level test names in go test output.
var failedTest = regexp.MustCompile(`(?m)^--- FAIL: (\S+)`)

func TestMutants(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found above internal/core: %v", err)
	}
	srcs := make(map[string]string) // target file -> unmutated source
	seen := make(map[string]bool)
	perFile := make(map[string]int)
	for _, m := range mutants {
		if _, ok := srcs[m.file]; !ok {
			orig, err := os.ReadFile(m.file)
			if err != nil {
				t.Fatal(err)
			}
			srcs[m.file] = string(orig)
		}
		if seen[m.name] {
			t.Errorf("duplicate mutant name %s", m.name)
		}
		seen[m.name] = true
		perFile[m.file]++
		if n := strings.Count(srcs[m.file], m.old); n != 1 {
			t.Errorf("mutant %s: anchor matches %s %d times, want exactly 1", m.name, m.file, n)
		}
	}
	if perFile["store.go"] < 20 {
		t.Errorf("%d store.go mutants, want at least 20", perFile["store.go"])
	}
	if perFile["invariant.go"] < 3 {
		t.Errorf("%d invariant.go mutants, want at least 3", perFile["invariant.go"])
	}
	if t.Failed() {
		t.FailNow()
	}

	work := filepath.Join(t.TempDir(), "module")
	copyModule(t, root, work)

	// The unmutated copy must pass, or every kill below is meaningless.
	if out, err := runSuites(work); err != nil {
		t.Fatalf("unmutated module copy fails its tests:\n%s", out)
	}
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			target := filepath.Join(work, "internal", "core", m.file)
			src := srcs[m.file]
			mutated := strings.Replace(src, m.old, m.new, 1)
			if err := os.WriteFile(target, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			// Restore the file so the next mutant, whatever its
			// target, runs against exactly one fault.
			defer func() {
				if err := os.WriteFile(target, []byte(src), 0o644); err != nil {
					t.Fatal(err)
				}
			}()
			out, err := runSuites(work)
			switch {
			case err == nil:
				t.Errorf("mutant survived: %q -> %q", m.old, m.new)
			case strings.Contains(out, "[build failed]") || strings.Contains(out, "[setup failed]"):
				t.Errorf("mutant does not compile, so it tests nothing:\n%s", out)
			default:
				var killers []string
				for _, sm := range failedTest.FindAllStringSubmatch(out, -1) {
					killers = append(killers, sm[1])
				}
				how := "failed"
				if strings.Contains(out, "\npanic: ") {
					how = "panicked" // the panic aborts its test binary
				}
				t.Logf("killed: %s in %s", how, strings.Join(killers, ", "))
			}
		})
	}
}

// runSuites runs the short core and persist test suites in dir.
func runSuites(dir string) (string, error) {
	cmd := exec.Command("go", "test", "-short", "-count=1", "-timeout", "5m",
		"./internal/core", "./internal/persist")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// copyModule copies the module's source tree from src to dst, skipping
// version-control and build-output directories.
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "profiles") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying module: %v", err)
	}
}
