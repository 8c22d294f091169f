// Package obs is the repository's dependency-free observability layer:
// a metrics registry of atomic counters, gauges, and streaming
// histograms, and a lightweight span tracer that records both
// wall-clock and sim-clock durations.
//
// The package exists because the attack pipeline's central quantity —
// the attacker's achieved sampling rate, which bounds the channel
// capacity of every experiment in the paper — was previously invisible
// at runtime, as were the simulation engine's throughput (sim-time /
// wall-time ratio) and the cost of the classifier's train/predict
// phases. Every internal package records into the process-wide Default
// registry; the CLIs print it as a text snapshot (-obs), fold it into
// the run ledger's manifests and render its spans as a Chrome trace
// (-trace-out), and the public ampere.Snapshot API returns it
// programmatically.
//
// Primitives are built for hot paths: a Counter.Add is one atomic add,
// a Histogram.Observe is an atomic add into a geometric bucket, and
// instrumented code holds *Counter/*Histogram pointers so the registry
// map is only consulted at setup time.
//
// Retention is bounded everywhere: histograms summarize into fixed
// geometric buckets rather than storing samples, and completed spans
// keep the most recent SpanRingSize (1024) entries. Older spans remain
// visible only through the "span.<name>.{wall,sim}_ns" histograms; the
// span ring is what the Chrome trace exporter (internal/obs/export)
// renders, so a trace timeline covers at most the last SpanRingSize
// spans of a run.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomically updated float64 value (last writer wins).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bucket geometry: 8 sub-buckets per octave (relative error
// about 6% per bucket) spanning 2^-30 (≈1 ns when observing seconds,
// or sub-Hz when observing rates) to 2^40 (≈18 min in ns, or 1 THz).
// Sub-buckets divide each octave linearly in the mantissa, so the
// bucket index is read straight out of the float's bit pattern — no
// logarithm on the Observe hot path.
const (
	histMinExp  = -30
	histMaxExp  = 40
	histSubBits = 3 // 2^3 sub-buckets per octave
	histSub     = 1 << histSubBits
	// histBuckets adds one underflow and one overflow bucket.
	histBuckets = (histMaxExp-histMinExp)*histSub + 2
)

// Histogram is a streaming geometric-bucket histogram supporting
// concurrent Observe calls and percentile queries without storing
// samples. The zero value is ready to use.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 sum, CAS-updated
	minBits atomic.Uint64 // float64 min, CAS-updated
	maxBits atomic.Uint64 // float64 max, CAS-updated
	buckets [histBuckets]atomic.Int64
}

func bucketIndex(v float64) int {
	if !(v > 0) { // zero, negative, NaN
		return 0
	}
	bits := math.Float64bits(v)
	exp := int(bits>>52) - 1023 // floor(log2 v); subnormals give < histMinExp
	if exp < histMinExp {
		return 0
	}
	if exp >= histMaxExp {
		return histBuckets - 1
	}
	sub := int(bits>>(52-histSubBits)) & (histSub - 1)
	return 1 + (exp-histMinExp)<<histSubBits + sub
}

// bucketValue returns the midpoint of bucket i, the value reported for
// percentiles landing in it: bucket (e,s) spans 2^e·[1+s/8, 1+(s+1)/8).
func bucketValue(i int) float64 {
	if i <= 0 {
		return 0
	}
	if i >= histBuckets-1 {
		return math.Exp2(histMaxExp)
	}
	i--
	exp := histMinExp + i>>histSubBits
	sub := i & (histSub - 1)
	return math.Exp2(float64(exp)) * (1 + (float64(sub)+0.5)/histSub)
}

// Observe records one sample. Non-positive samples land in the
// underflow bucket and count toward Count but not percentiles' spread.
func (h *Histogram) Observe(v float64) {
	h.count.Add(1)
	h.buckets[bucketIndex(v)].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if old != unsetBits && math.Float64frombits(old) <= v {
			break
		}
		if h.minBits.CompareAndSwap(old, storeBits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if old != unsetBits && math.Float64frombits(old) >= v {
			break
		}
		if h.maxBits.CompareAndSwap(old, storeBits(v)) {
			break
		}
	}
}

// The zero bit pattern marks "no value stored yet" in minBits/maxBits.
// A stored +0.0 would collide with it, so storeBits nudges +0.0 to the
// smallest subnormal — far below any bucket resolution.
const unsetBits uint64 = 0

func storeBits(v float64) uint64 {
	b := math.Float64bits(v)
	if b == unsetBits {
		return 1
	}
	return b
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the running sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Mean returns the running mean, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Min returns the smallest observation, or 0 with no observations.
func (h *Histogram) Min() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observation, or 0 with no observations.
func (h *Histogram) Max() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile returns the q-quantile (0..1) estimated from the bucket
// geometry; the relative error is bounded by the bucket width (~6%).
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			// The under/overflow buckets have no geometry; report the
			// exact observed extremum instead.
			if i == 0 {
				return h.Min()
			}
			if i == histBuckets-1 {
				return h.Max()
			}
			v := bucketValue(i)
			// Clamp the estimate to the observed envelope so tiny
			// histograms report exact extrema.
			if min := h.Min(); v < min {
				v = min
			}
			if max := h.Max(); v > max {
				v = max
			}
			return v
		}
	}
	return h.Max()
}

// Registry is a named collection of metrics. Metric handles are created
// on first use and cached; lookups take a mutex, so hot paths should
// hold the returned pointers rather than re-resolving names.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    spanRing
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Default is the process-wide registry every internal package records
// into; ampere.Snapshot and the CLI's --obs outputs read it.
var Default = NewRegistry()

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every metric in place and clears the span ring. Handles returned by Counter/Gauge/Histogram stay valid — code
// that cached a pointer (package-level counters, live engines) keeps
// recording into the zeroed metric. Reset is not atomic with respect to
// concurrent Observe calls; call it between experiments, not during one.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
	r.spans.reset()
}

func (h *Histogram) reset() {
	h.count.Store(0)
	h.sumBits.Store(0)
	h.minBits.Store(0)
	h.maxBits.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// C returns a counter from the Default registry.
func C(name string) *Counter { return Default.Counter(name) }

// G returns a gauge from the Default registry.
func G(name string) *Gauge { return Default.Gauge(name) }

// H returns a histogram from the Default registry.
func H(name string) *Histogram { return Default.Histogram(name) }

// sortedKeys returns map keys in lexical order (stable snapshots).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
