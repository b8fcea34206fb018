// Command benchjson converts `go test -bench -benchmem` output on
// stdin into a stable JSON document on stdout, keyed by benchmark
// name with the -N GOMAXPROCS suffix stripped:
//
//	go test -run '^$' -bench . -benchmem ./internal/core/ | benchjson > BENCH_core.json
//
// The output maps each benchmark to {ns_op, b_op, allocs_op} so CI
// can diff runs against committed baselines without parsing test
// output itself.
//
// Duplicate benchmark names (from -count N reruns) keep the fastest
// sample. With -append FILE, rows parsed from stdin are merged into
// FILE's existing document under the same fastest-sample rule and the
// result is written back to FILE instead of stdout — used to measure
// packages in separate `go test` invocations (concurrent test binaries
// contend) while keeping one baseline file per tier.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

type result struct {
	NsOp     float64 `json:"ns_op"`
	BOp      int64   `json:"b_op"`
	AllocsOp int64   `json:"allocs_op"`
}

// parseLine reads one benchmark result line, e.g.
//
//	BenchmarkWALAppend-8   123456   9876 ns/op   0 B/op   0 allocs/op
//
// After the name and iteration count the line is a sequence of
// "value unit" pairs in any order — custom b.ReportMetric units sit
// between ns/op and the -benchmem columns — so every pair is read and
// the three known units are kept. ok is false for any other line.
func parseLine(line string) (name string, r result, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", r, false
	}
	if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
		return "", r, false
	}
	name = f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // the -N GOMAXPROCS suffix
		}
	}
	sawNs := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", r, false
		}
		switch f[i+1] {
		case "ns/op":
			r.NsOp, sawNs = v, true
		case "B/op":
			r.BOp = int64(v)
		case "allocs/op":
			r.AllocsOp = int64(v)
		}
	}
	return name, r, sawNs
}

func main() {
	appendTo := flag.String("append", "", "merge rows into this JSON file (in place) instead of writing stdout")
	flag.Parse()

	out := map[string]result{}
	if *appendTo != "" {
		prev, err := os.ReadFile(*appendTo)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if err := json.Unmarshal(prev, &out); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *appendTo, err)
			os.Exit(1)
		}
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, r, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		// Duplicate rows (-count N reruns) keep the fastest sample: the
		// minimum is the standard noise-robust wall-clock statistic —
		// scheduler steal and GC alignment only ever add time — while
		// the alloc columns are deterministic across reruns.
		if prev, ok := out[name]; ok && prev.NsOp <= r.NsOp {
			continue
		}
		out[name] = r
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(out) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	// Sorted keys keep committed baselines diffable.
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("{\n")
	for i, n := range names {
		v, _ := json.Marshal(out[n])
		fmt.Fprintf(&b, "  %q: %s", n, v)
		if i < len(names)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	if *appendTo != "" {
		if err := os.WriteFile(*appendTo, []byte(b.String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	os.Stdout.WriteString(b.String())
}
