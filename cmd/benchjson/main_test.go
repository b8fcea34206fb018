package main

import "testing"

func TestParseLine(t *testing.T) {
	cases := []struct {
		line string
		name string
		want result
		ok   bool
	}{
		{
			// A custom metric between ns/op and the -benchmem columns
			// must not hide the alloc columns.
			line: "BenchmarkConcurrentChurn/pipelined/c=1-2   \t    3000\t     27754 ns/op\t         1.000 spec-hit-rate\t    7515 B/op\t      81 allocs/op",
			name: "BenchmarkConcurrentChurn/pipelined/c=1",
			want: result{NsOp: 27754, BOp: 7515, AllocsOp: 81},
			ok:   true,
		},
		{
			line: "BenchmarkWALAppend-8   123456   9876 ns/op   822 B/op   0 allocs/op",
			name: "BenchmarkWALAppend",
			want: result{NsOp: 9876, BOp: 822},
			ok:   true,
		},
		{
			line: "BenchmarkWalkHop/arena-2 2000000 10.62 ns/op 0 B/op 0 allocs/op",
			name: "BenchmarkWalkHop/arena",
			want: result{NsOp: 10.62},
			ok:   true,
		},
		{
			// Without -benchmem, and with a MB/s column.
			line: "BenchmarkCodec 100 2500 ns/op 512.00 MB/s",
			name: "BenchmarkCodec",
			want: result{NsOp: 2500},
			ok:   true,
		},
		{line: "BenchmarkRecoveryOp/dense/n=100000", ok: false},
		{line: "goos: linux", ok: false},
		{line: "ok  \trepro/internal/core\t12.3s", ok: false},
	}
	for _, c := range cases {
		name, got, ok := parseLine(c.line)
		if ok != c.ok || (ok && (name != c.name || got != c.want)) {
			t.Errorf("parseLine(%q) = %q, %+v, %v; want %q, %+v, %v", c.line, name, got, ok, c.name, c.want, c.ok)
		}
	}
}
