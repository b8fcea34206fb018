package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is a handful of outliers, not a
// percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of xs, which must be
// sorted ascending, and how many samples lie strictly beyond its rank.
// An empty input yields (0, 0).
func quantile(xs []float64, q float64) (v float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	return xs[rank-1], n - rank
}

// tail is quantile with the minBeyond rule enforced: it reports an
// error instead of a percentile that too few samples back.
func tail(xs []float64, q float64, what string) (float64, error) {
	v, beyond := quantile(xs, q)
	if beyond < minBeyond {
		return 0, fmt.Errorf("%s: p%g over %d samples has %d beyond it, need %d", what, 100*q, len(xs), beyond, minBeyond)
	}
	return v, nil
}

// median returns the middle of xs (sorted or not; xs is not modified),
// averaging the two middle values of an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// span is one timed interval recorded by the benchmark around a call
// into a layer. Spans of one churn operation share op; parent is the
// index of the enclosing span, or -1.
type span struct {
	name       string
	start, end int64 // ns since the recorder's origin
	parent     int32
	op         int64
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory for the whole run; write dumps them
// once at exit so recording costs an append, not I/O.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// now returns the recorder clock: ns since origin, monotonic.
func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

func (r *recorder) add(name string, start, end int64, parent int32, op int64) int32 {
	r.spans = append(r.spans, span{name: name, start: start, end: end, parent: parent, op: op})
	return int32(len(r.spans) - 1)
}

// merge appends o's spans, which must share r's origin.
func (r *recorder) merge(o *recorder) {
	base := int32(len(r.spans))
	for _, s := range o.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// selfTimes returns, for every span named name, its duration minus the
// durations of its direct children, in ns.
func (r *recorder) selfTimes(name string) []float64 {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.dur()
		}
	}
	var out []float64
	for i, s := range r.spans {
		if s.name == name {
			out = append(out, float64(s.dur()-child[i]))
		}
	}
	return out
}

// durations returns the durations in ns of every span named name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// write dumps the spans as tab-separated lines:
// index, parent, op, name, start_ns, end_ns.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index\tparent\top\tname\tstart_ns\tend_ns")
	for i, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.op, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
