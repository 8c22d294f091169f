package tsdb

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Kind classifies a series: counters are cumulative (rates are
// meaningful), gauges are instantaneous.
type Kind uint8

const (
	// Gauge series carry instantaneous values.
	Gauge Kind = iota
	// Counter series carry cumulative, normally non-decreasing values.
	Counter
)

// String returns the kind's wire name.
func (k Kind) String() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

// KindFromString parses a wire name back into a Kind.
func KindFromString(s string) (Kind, error) {
	switch s {
	case "counter":
		return Counter, nil
	case "gauge":
		return Gauge, nil
	}
	return 0, fmt.Errorf("tsdb: unknown kind %q (want counter|gauge)", s)
}

// TierSpec configures one downsample tier.
type TierSpec struct {
	// Width is the tier's window width in nanoseconds.
	Width int64
	// Capacity is the number of sealed windows retained (DefaultTierCapacity
	// when zero).
	Capacity int
}

// Defaults for Options fields left zero.
const (
	DefaultRawCapacity  = 512
	DefaultTierCapacity = 256
)

// Options configures a Store.
type Options struct {
	// RawCapacity bounds the per-series raw ring (DefaultRawCapacity
	// when zero).
	RawCapacity int
	// Tiers are the downsample tiers, widths strictly increasing. Nil
	// means raw-only retention.
	Tiers []TierSpec
}

// tier is one live downsample level of a series.
type tier struct {
	spec    TierSpec
	sealed  *ring[Window]
	open    Window
	hasOpen bool
}

// series is the storage behind one metric name.
type series struct {
	kind  Kind
	raw   *ring[Point]
	tiers []*tier
}

// Store is a thread-safe collection of bounded time series.
type Store struct {
	mu        sync.RWMutex
	opts      Options
	series    map[string]*series
	samples   int64
	evictions int64
}

// Stats summarizes a store's occupancy.
type Stats struct {
	// Series is the number of distinct series.
	Series int `json:"series"`
	// Points is the number of raw points currently retained.
	Points int `json:"points"`
	// Samples is the total number of points ever appended.
	Samples int64 `json:"samples"`
	// Evictions counts raw points and sealed windows dropped to stay
	// inside the retention bounds.
	Evictions int64 `json:"evictions"`
}

// New returns an empty store. Invalid options are normalized: a
// non-positive raw capacity takes the default, tiers with non-positive
// widths are dropped, and tier capacities default.
func New(opts Options) *Store {
	if opts.RawCapacity <= 0 {
		opts.RawCapacity = DefaultRawCapacity
	}
	tiers := make([]TierSpec, 0, len(opts.Tiers))
	for _, t := range opts.Tiers {
		if t.Width <= 0 {
			continue
		}
		if t.Capacity <= 0 {
			t.Capacity = DefaultTierCapacity
		}
		tiers = append(tiers, t)
	}
	sort.Slice(tiers, func(i, j int) bool { return tiers[i].Width < tiers[j].Width })
	opts.Tiers = tiers
	return &Store{opts: opts, series: make(map[string]*series)}
}

// Append records one sample. The first append fixes the series kind;
// later appends keep it. Timestamps should be non-decreasing per
// series (the recorder's sampling loop guarantees it); a stray
// out-of-order point is absorbed into the tiers' current open windows.
// Non-finite values are dropped — a NaN gap marker is a fact about a
// trace, not a point on a metric series.
func (s *Store) Append(name string, kind Kind, t int64, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ser, ok := s.series[name]
	if !ok {
		ser = &series{kind: kind, raw: newRing[Point](s.opts.RawCapacity)}
		for _, spec := range s.opts.Tiers {
			ser.tiers = append(ser.tiers, &tier{spec: spec, sealed: newRing[Window](spec.Capacity)})
		}
		s.series[name] = ser
	}
	p := Point{T: t, V: v}
	if ser.raw.push(p) {
		s.evictions++
	}
	for _, tr := range ser.tiers {
		start := align(t, tr.spec.Width)
		switch {
		case !tr.hasOpen:
			tr.open, tr.hasOpen = newWindow(start, tr.spec.Width, p), true
		case t >= tr.open.End:
			if tr.sealed.push(tr.open) {
				s.evictions++
			}
			tr.open = newWindow(start, tr.spec.Width, p)
		default:
			tr.open.absorb(p)
		}
	}
	s.samples++
}

// SeriesNames returns every series name in lexical order.
func (s *Store) SeriesNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.series))
	for k := range s.series {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Kind returns the series kind and whether the series exists.
func (s *Store) Kind(name string) (Kind, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ser, ok := s.series[name]
	if !ok {
		return 0, false
	}
	return ser.kind, true
}

// Range returns the retained raw points of the series with from <= T
// <= to, oldest first.
func (s *Store) Range(name string, from, to int64) []Point {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ser, ok := s.series[name]
	if !ok {
		return nil
	}
	var out []Point
	for _, p := range ser.raw.list() {
		if p.T >= from && p.T <= to {
			out = append(out, p)
		}
	}
	return out
}

// Windows returns the aggregate windows of the given width overlapping
// [from, to]. When the width matches a downsample tier the sealed tier
// windows answer — they reach further back than the raw ring — merged
// with the tier's open window; any other width is computed by
// downsampling the retained raw points, so arbitrary widths work
// within raw retention.
func (s *Store) Windows(name string, width, from, to int64) []Window {
	if width <= 0 {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	ser, ok := s.series[name]
	if !ok {
		return nil
	}
	var all []Window
	matched := false
	for _, tr := range ser.tiers {
		if tr.spec.Width != width {
			continue
		}
		matched = true
		all = tr.sealed.list()
		if tr.hasOpen {
			all = MergeWindows(all, []Window{tr.open})
		}
		break
	}
	if !matched {
		var pts []Point
		for _, p := range ser.raw.list() {
			if p.T >= satSub(from, width) && p.T <= to {
				pts = append(pts, p)
			}
		}
		all = Downsample(pts, width)
	}
	out := make([]Window, 0, len(all))
	for _, w := range all {
		if w.End > from && w.Start <= to {
			out = append(out, w)
		}
	}
	return out
}

// satSub is a-b saturating at math.MinInt64, so "one window before an
// unbounded from" does not wrap around.
func satSub(a, b int64) int64 {
	if r := a - b; (b > 0) == (r < a) {
		return r
	}
	return math.MinInt64
}

// Stats returns the store's occupancy counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Series: len(s.series), Samples: s.samples, Evictions: s.evictions}
	for _, ser := range s.series {
		st.Points += ser.raw.n
	}
	return st
}

// SeriesDump is the serializable state of one series, for
// deterministic recording comparisons and debugging.
type SeriesDump struct {
	Kind   string     `json:"kind"`
	Points []Point    `json:"points"`
	Tiers  [][]Window `json:"tiers,omitempty"`
}

// Dump returns the full retained state keyed by series name. Marshal
// the result with encoding/json (which sorts map keys) for a stable
// byte representation: two stores fed identical appends dump
// byte-identically.
func (s *Store) Dump() map[string]SeriesDump {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]SeriesDump, len(s.series))
	for name, ser := range s.series {
		d := SeriesDump{Kind: ser.kind.String(), Points: ser.raw.list()}
		for _, tr := range ser.tiers {
			ws := tr.sealed.list()
			if tr.hasOpen {
				ws = append(ws, tr.open)
			}
			d.Tiers = append(d.Tiers, ws)
		}
		out[name] = d
	}
	return out
}
