// Package noalloc checks the //dexvet:noalloc annotation: a function so
// marked must contain no allocation site that escape analysis sends to
// the heap. The walk-hop, steady-state recovery and WAL-append paths
// carry the annotation — their 0 allocs/op is load-bearing (Lemma 2's
// O(1)-expected walks are only O(1) if a hop never allocates), and this
// turns the runtime alloc gates' contract into a vet-time failure
// instead of a benchmark regression.
//
// Evidence comes from the real compiler: the analyzer builds the
// package with -gcflags=-m=1 and maps every "escapes to heap" /
// "moved to heap" diagnostic back into annotated function bodies. Two
// carve-outs:
//
//   - allocations inside a panic(...) argument are exempt — a
//     panicking path is the process dying, not the hot path;
//   - a cold branch that legitimately allocates (arena growth) carries
//     //dexvet:allow noalloc <reason> on the offending line.
//
// The check is per-function: it proves the annotated body itself has
// no escaping sites, while the testing.AllocsPerRun gates keep owning
// the whole-path steady-state guarantee. The two are complementary —
// the runtime gate catches what the callee graph does, the vet gate
// names the exact site the moment someone adds one.
package noalloc

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the noalloc rule.
var Analyzer = &analysis.Analyzer{
	Name:    "noalloc",
	Doc:     "//dexvet:noalloc functions must have no allocation site that escapes to the heap (checked against go build -gcflags=-m)",
	Applies: func(pkg *analysis.Package) bool { return true },
	Run:     run,
}

// escapeLine matches one compiler diagnostic.
var escapeLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

type annotated struct {
	fd       *ast.FuncDecl
	file     *ast.File
	base     string // file base name
	from, to int    // line span
}

func run(pass *analysis.Pass) error {
	pkg := pass.Pkg

	var fns []annotated
	for i, file := range pkg.Syntax {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !analysis.HasDirective(fd, analysis.NoallocDirective) {
				continue
			}
			fns = append(fns, annotated{
				fd:   fd,
				file: file,
				base: filepath.Base(pkg.Files[i]),
				from: pkg.Fset.Position(fd.Pos()).Line,
				to:   pkg.Fset.Position(fd.End()).Line,
			})
		}
	}
	if len(fns) == 0 {
		return nil
	}

	// The compiler is the oracle. Build output (including -m
	// diagnostics) is replayed from the build cache, so repeated lint
	// runs do not recompile.
	cmd := exec.Command("go", "build", "-gcflags=-m=1", pkg.Path)
	cmd.Dir = pkg.ModDir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build -gcflags=-m %s: %v\n%s", pkg.Path, err, out.String())
	}

	for _, line := range strings.Split(out.String(), "\n") {
		m := escapeLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		if strings.Contains(msg, "does not escape") {
			continue
		}
		lineNo, _ := strconv.Atoi(m[2])
		colNo, _ := strconv.Atoi(m[3])
		base := filepath.Base(m[1])
		for _, fn := range fns {
			if fn.base != base || lineNo < fn.from || lineNo > fn.to {
				continue
			}
			pos := positionFor(pkg, fn, lineNo, colNo)
			if pos == token.NoPos || !inPanicArg(fn.fd, pos) {
				pass.ReportAtf(token.Position{Filename: absFile(pkg, base), Line: lineNo, Column: colNo},
					"heap escape in //dexvet:noalloc function %s: %s", fn.fd.Name.Name, msg)
			}
			break
		}
	}
	return nil
}

// positionFor converts a compiler (line, col) back into a token.Pos
// inside the annotated function's file.
func positionFor(pkg *analysis.Package, fn annotated, line, col int) token.Pos {
	tf := pkg.Fset.File(fn.file.Pos())
	if tf == nil || line > tf.LineCount() {
		return token.NoPos
	}
	return tf.LineStart(line) + token.Pos(col-1)
}

// inPanicArg reports whether pos sits inside an argument of a panic
// call: allocations on panicking paths are exempt.
func inPanicArg(fd *ast.FuncDecl, pos token.Pos) bool {
	exempt := false
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			if call.Pos() <= pos && pos < call.End() {
				exempt = true
			}
		}
		return true
	})
	return exempt
}

func absFile(pkg *analysis.Package, base string) string {
	for _, f := range pkg.Files {
		if filepath.Base(f) == base {
			return f
		}
	}
	return base
}
