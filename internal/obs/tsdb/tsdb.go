// Package tsdb is a pure-stdlib in-process time-series engine: bounded
// raw rings of timestamped points per series, downsampled aggregate
// tiers, and windowed range selects over both.
//
// The package holds no opinion about where points come from — it knows
// nothing about the obs registry, clocks, or HTTP. internal/obs wires a
// Recorder that periodically samples the registry snapshot into a
// Store; this split keeps every aggregation rule here a pure function
// of its inputs, which is what the property suites in
// tsdb_prop_test.go lean on (downsample/merge associativity, window
// envelope invariants, retention bounds).
//
// # Time
//
// Timestamps are int64 nanoseconds on whatever clock the caller
// samples with — wall-clock UnixNano for a live deployment, the sim
// engine's monotonic nanoseconds for a deterministic recording. Windows
// are aligned to multiples of their width on that same axis, so two
// recordings of the same deterministic run produce byte-identical
// window sequences.
//
// # Retention
//
// Everything is bounded at append time. Each series keeps its most
// recent RawCapacity raw points; each downsample tier keeps its most
// recent Capacity sealed windows plus one open window that absorbs new
// points until the timestamp crosses the next boundary. Evicted points
// and windows are counted (Stats.Evictions) but never block an append.
package tsdb

import (
	"math"
)

// Point is one raw sample of a series.
type Point struct {
	// T is the sample timestamp in nanoseconds (wall or sim axis).
	T int64 `json:"t"`
	// V is the sampled value.
	V float64 `json:"v"`
}

// Window is the aggregate of the points whose timestamps land in
// [Start, End). Mean is maintained as Sum/Count so a marshalled window
// is self-describing without arithmetic on the consumer side.
type Window struct {
	// Start is the window's aligned start (Start % width == 0).
	Start int64 `json:"start"`
	// End is Start plus the window width.
	End int64 `json:"end"`
	// Count is the number of points absorbed.
	Count int64 `json:"count"`
	// First and Last are the chronologically first and last values —
	// for counter series the pair a rate computation needs.
	First float64 `json:"first"`
	Last  float64 `json:"last"`
	// Min, Max, Sum, Mean summarize the absorbed values.
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Sum  float64 `json:"sum"`
	Mean float64 `json:"mean"`
}

// newWindow opens a window at the aligned start covering p.
func newWindow(start, width int64, p Point) Window {
	return Window{
		Start: start, End: start + width,
		Count: 1,
		First: p.V, Last: p.V,
		Min: p.V, Max: p.V, Sum: p.V, Mean: p.V,
	}
}

// absorb folds one more point into the window (points arrive in time
// order, so p becomes Last).
func (w *Window) absorb(p Point) {
	w.Count++
	w.Last = p.V
	if p.V < w.Min {
		w.Min = p.V
	}
	if p.V > w.Max {
		w.Max = p.V
	}
	w.Sum += p.V
	w.Mean = w.Sum / float64(w.Count)
}

// merge combines w with a later window covering the same [Start, End):
// counts and sums add, the envelope widens, and First/Last keep their
// chronological meaning (w's First, later's Last).
func (w *Window) merge(later Window) {
	w.Count += later.Count
	w.Last = later.Last
	if later.Min < w.Min {
		w.Min = later.Min
	}
	if later.Max > w.Max {
		w.Max = later.Max
	}
	w.Sum += later.Sum
	w.Mean = w.Sum / float64(w.Count)
}

// align floors t to a multiple of width (correct for negative t too,
// though every supported clock axis is non-negative).
func align(t, width int64) int64 {
	r := t % width
	if r < 0 {
		r += width
	}
	return t - r
}

// Downsample aggregates time-ordered points into aligned windows of the
// given width (nanoseconds), skipping non-finite values. Empty windows
// are not emitted: a gap in the points is a gap in the output, which is
// exactly how a sampling dropout should look on a sparkline.
func Downsample(pts []Point, width int64) []Window {
	if width <= 0 {
		return nil
	}
	var out []Window
	for _, p := range pts {
		if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
			continue
		}
		start := align(p.T, width)
		if n := len(out); n > 0 && out[n-1].Start == start {
			out[n-1].absorb(p)
		} else {
			out = append(out, newWindow(start, width, p))
		}
	}
	return out
}

// MergeWindows merges two window sequences of the same width, where b
// covers the same time axis at or after a (the split halves of one
// time-ordered recording). Windows sharing a Start merge; the result is
// sorted by Start. MergeWindows is the algebra behind querying sealed
// tier windows together with a fresher open window, and it satisfies
//
//	Downsample(append(a, b...), w) == MergeWindows(Downsample(a, w), Downsample(b, w))
//
// for any split of a time-ordered point slice — the associativity the
// property suite pins.
func MergeWindows(a, b []Window) []Window {
	out := make([]Window, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Start < b[j].Start:
			out = append(out, a[i])
			i++
		case a[i].Start > b[j].Start:
			out = append(out, b[j])
			j++
		default:
			m := a[i]
			m.merge(b[j])
			out = append(out, m)
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// ring is a bounded FIFO of the most recent values.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int
}

func newRing[T any](capacity int) *ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &ring[T]{buf: make([]T, capacity)}
}

// push appends v, evicting the oldest element when full; it reports
// whether an eviction happened.
func (r *ring[T]) push(v T) bool {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = v
		r.n++
		return false
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	return true
}

// list returns the retained elements, oldest first.
func (r *ring[T]) list() []T {
	out := make([]T, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.head+i)%len(r.buf)])
	}
	return out
}
