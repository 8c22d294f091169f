package obs

// Metrics history: a Recorder periodically samples the registry
// snapshot into an internal/obs/tsdb Store, turning the instantaneous
// telemetry surfaces into a recorder — /metrics/range serves the
// retained history, windowed health rules difference it, and
// `amperebleed top` renders sparklines from it.
//
// The recorder's own bookkeeping metrics (obs.tsdb.samples,
// obs.tsdb.evictions counters and the obs.tsdb.series gauge) are
// registered lazily on the first Sample, so processes that never
// record history keep their deterministic counter set unchanged;
// internal/perf additionally excludes the obs.tsdb.* prefix from the
// drift gate because sample counts follow the wall ticker.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs/tsdb"
)

// DefaultHistoryInterval is the sampling period when RecorderOptions
// leaves Interval zero, and the period behind the CLIs'
// -history-interval default.
const DefaultHistoryInterval = time.Second

// DefaultHistoryRawCapacity bounds each series' raw ring when
// RecorderOptions leaves RawCapacity zero: 10 minutes at the default
// one-second interval.
const DefaultHistoryRawCapacity = 600

// DefaultHistoryTiers returns the downsample tiers used when
// RecorderOptions leaves Tiers nil: windows of 10 and 60 sampling
// intervals retaining 360 and 240 sealed windows — at the default
// one-second interval that is one hour of 10 s windows and four hours
// of 1 min windows beyond the 10 min raw ring.
func DefaultHistoryTiers(interval time.Duration) []tsdb.TierSpec {
	if interval <= 0 {
		interval = DefaultHistoryInterval
	}
	return []tsdb.TierSpec{
		{Width: 10 * int64(interval), Capacity: 360},
		{Width: 60 * int64(interval), Capacity: 240},
	}
}

// RecorderOptions configures a history Recorder.
type RecorderOptions struct {
	// Interval is the sampling period (DefaultHistoryInterval when
	// zero). StartRecorder's ticker always runs on the wall clock; the
	// Clock only chooses the timestamp axis.
	Interval time.Duration
	// RawCapacity bounds each series' raw ring
	// (DefaultHistoryRawCapacity when zero).
	RawCapacity int
	// Tiers are the downsample tiers (DefaultHistoryTiers(Interval)
	// when nil).
	Tiers []tsdb.TierSpec
	// Clock, when non-nil, stamps samples with simulated time instead
	// of wall UnixNano, so recordings of a deterministic run land on a
	// deterministic axis.
	Clock SimClock
	// Filter, when non-nil, keeps only series whose (expanded) name it
	// accepts. The determinism property tests use it to restrict a
	// recording to deterministic series.
	Filter func(name string) bool
}

// Recorder samples a registry into a bounded time-series store.
type Recorder struct {
	reg   *Registry
	store *tsdb.Store
	opts  RecorderOptions

	lazy          sync.Once
	samplesC      *Counter
	evictionsC    *Counter
	seriesG       *Gauge
	mu            sync.Mutex
	lastEvictions int64
}

// NewRecorder builds a recorder without starting it; every Sample call
// appends one pass over the registry snapshot. Most callers want
// StartRecorder instead.
func (r *Registry) NewRecorder(opts RecorderOptions) *Recorder {
	if opts.Interval <= 0 {
		opts.Interval = DefaultHistoryInterval
	}
	if opts.RawCapacity <= 0 {
		opts.RawCapacity = DefaultHistoryRawCapacity
	}
	if opts.Tiers == nil {
		opts.Tiers = DefaultHistoryTiers(opts.Interval)
	}
	return &Recorder{
		reg:   r,
		store: tsdb.New(tsdb.Options{RawCapacity: opts.RawCapacity, Tiers: opts.Tiers}),
		opts:  opts,
	}
}

// StartRecorder builds a recorder, installs it as the registry's
// history (serving /metrics/range and feeding windowed health rules),
// takes an immediate first sample, and samples every Interval until ctx
// is cancelled. The recorder stays installed after cancellation so the
// retained history remains queryable while an obs server is held open
// past the end of a run.
func (r *Registry) StartRecorder(ctx context.Context, opts RecorderOptions) *Recorder {
	rec := r.NewRecorder(opts)
	r.history.Store(rec)
	rec.Sample()
	go func() {
		t := time.NewTicker(rec.opts.Interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				rec.Sample()
			}
		}
	}()
	return rec
}

// StartRecorder starts a history recorder on the Default registry.
func StartRecorder(ctx context.Context, opts RecorderOptions) *Recorder {
	return Default.StartRecorder(ctx, opts)
}

// History returns the registry's installed recorder, or nil when the
// process is not recording history.
func (r *Registry) History() *Recorder { return r.history.Load() }

// Store exposes the recorder's underlying time-series store.
func (rec *Recorder) Store() *tsdb.Store { return rec.store }

// Interval returns the sampling period.
func (rec *Recorder) Interval() time.Duration { return rec.opts.Interval }

// ClockName names the timestamp axis: "sim" or "wall".
func (rec *Recorder) ClockName() string {
	if rec.opts.Clock != nil {
		return "sim"
	}
	return "wall"
}

// Now returns the current time on the recorder's timestamp axis in
// nanoseconds.
func (rec *Recorder) Now() int64 {
	if rec.opts.Clock != nil {
		return int64(rec.opts.Clock.Now())
	}
	return time.Now().UnixNano()
}

func (rec *Recorder) lazyInit() {
	rec.lazy.Do(func() {
		rec.samplesC = rec.reg.Counter("obs.tsdb.samples")
		rec.evictionsC = rec.reg.Counter("obs.tsdb.evictions")
		rec.seriesG = rec.reg.Gauge("obs.tsdb.series")
	})
}

func (rec *Recorder) append(name string, kind tsdb.Kind, t int64, v float64) {
	if rec.opts.Filter != nil && !rec.opts.Filter(name) {
		return
	}
	rec.store.Append(name, kind, t, v)
}

// Sample appends one pass over the registry snapshot: counters and
// gauges record under their own names; each histogram expands into a
// "<name>.count" counter plus ".mean/.min/.max/.p50/.p95/.p99" gauges,
// which is what keeps latency series rangeable after the fact.
func (rec *Recorder) Sample() {
	rec.lazyInit()
	t := rec.Now()
	s := rec.reg.Snapshot()
	for name, v := range s.Counters {
		rec.append(name, tsdb.Counter, t, float64(v))
	}
	for name, v := range s.Gauges {
		rec.append(name, tsdb.Gauge, t, v)
	}
	for name, h := range s.Histograms {
		rec.append(name+".count", tsdb.Counter, t, float64(h.Count))
		if h.Count == 0 {
			continue
		}
		rec.append(name+".mean", tsdb.Gauge, t, h.Mean)
		rec.append(name+".min", tsdb.Gauge, t, h.Min)
		rec.append(name+".max", tsdb.Gauge, t, h.Max)
		rec.append(name+".p50", tsdb.Gauge, t, h.P50)
		rec.append(name+".p95", tsdb.Gauge, t, h.P95)
		rec.append(name+".p99", tsdb.Gauge, t, h.P99)
	}
	rec.samplesC.Inc()
	st := rec.store.Stats()
	rec.seriesG.Set(float64(st.Series))
	rec.mu.Lock()
	if d := st.Evictions - rec.lastEvictions; d > 0 {
		rec.evictionsC.Add(d)
		rec.lastEvictions = st.Evictions
	}
	rec.mu.Unlock()
}

// WindowedCounterDelta returns the named counter's increase over the
// last n sampling intervals (clamped at zero across a registry Reset)
// and whether the history covers at least two points in that span —
// callers fall back to cumulative evaluation when it does not.
func (rec *Recorder) WindowedCounterDelta(name string, n int) (float64, bool) {
	if n < 1 {
		n = 1
	}
	to := rec.Now()
	from := to - int64(n)*int64(rec.opts.Interval)
	pts := rec.store.Range(name, from, to)
	if len(pts) < 2 {
		return 0, false
	}
	d := pts[len(pts)-1].V - pts[0].V
	if d < 0 {
		d = 0
	}
	return d, true
}

// SeriesRange is one series' slice of a RangeResponse.
type SeriesRange struct {
	// Name is the series name.
	Name string `json:"name"`
	// Kind is "counter", "gauge", or "missing" for a requested series
	// the history has never seen.
	Kind string `json:"kind"`
	// Points are the raw samples (point mode).
	Points []tsdb.Point `json:"points,omitempty"`
	// Windows are the aggregates (window mode).
	Windows []tsdb.Window `json:"windows,omitempty"`
}

// RangeResponse is the /metrics/range JSON schema. Without a series
// parameter the endpoint answers in catalog mode: Names and Stats are
// set and Series is empty.
type RangeResponse struct {
	// Clock is the timestamp axis: "wall" or "sim".
	Clock string `json:"clock"`
	// IntervalNS is the sampling period in nanoseconds.
	IntervalNS int64 `json:"interval_ns"`
	// From and To bound the answered range (nanoseconds, inclusive).
	From int64 `json:"from"`
	To   int64 `json:"to"`
	// WindowNS is the aggregate window width (0 in point mode).
	WindowNS int64 `json:"window_ns,omitempty"`
	// Series carries the selected series.
	Series []SeriesRange `json:"series,omitempty"`
	// Names lists every recorded series (catalog mode).
	Names []string `json:"names,omitempty"`
	// Stats is the store occupancy (catalog mode).
	Stats *tsdb.Stats `json:"stats,omitempty"`
}

// Validate checks the response's internal consistency: known clock,
// positive interval, ordered range, valid kinds, and time-ordered
// points/windows inside [From, To].
func (r RangeResponse) Validate() error {
	if r.Clock != "wall" && r.Clock != "sim" {
		return fmt.Errorf("range: clock %q (want wall|sim)", r.Clock)
	}
	if r.IntervalNS <= 0 {
		return fmt.Errorf("range: interval_ns %d not positive", r.IntervalNS)
	}
	if r.From > r.To {
		return fmt.Errorf("range: from %d > to %d", r.From, r.To)
	}
	for _, sr := range r.Series {
		if sr.Kind != "missing" {
			if _, err := tsdb.KindFromString(sr.Kind); err != nil {
				return fmt.Errorf("range: series %q: %w", sr.Name, err)
			}
		}
		prev := int64(math.MinInt64)
		for _, p := range sr.Points {
			if p.T < r.From || p.T > r.To {
				return fmt.Errorf("range: series %q: point at %d outside [%d, %d]", sr.Name, p.T, r.From, r.To)
			}
			if p.T <= prev {
				return fmt.Errorf("range: series %q: points not strictly time-ordered at %d", sr.Name, p.T)
			}
			prev = p.T
		}
		prev = math.MinInt64
		for _, w := range sr.Windows {
			if r.WindowNS > 0 && (w.Start%r.WindowNS != 0 || w.End != w.Start+r.WindowNS) {
				return fmt.Errorf("range: series %q: window [%d,%d) not aligned to %d", sr.Name, w.Start, w.End, r.WindowNS)
			}
			if w.Start <= prev {
				return fmt.Errorf("range: series %q: windows not ordered at %d", sr.Name, w.Start)
			}
			if w.Count < 1 || w.Min > w.Max || w.Mean < w.Min || w.Mean > w.Max {
				return fmt.Errorf("range: series %q: window %+v violates envelope", sr.Name, w)
			}
			prev = w.Start
		}
	}
	return nil
}

// historyParams are the time-selection parameters of the range
// handler.
type historyParams struct {
	from, to int64
	window   int64
}

// parseHistoryParams reads from/to (nanoseconds) or last (duration),
// plus window (duration). Defaults cover the full retention.
func parseHistoryParams(rec *Recorder, q map[string][]string) (historyParams, error) {
	p := historyParams{from: math.MinInt64, to: math.MaxInt64}
	get := func(k string) string {
		if vs := q[k]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	if v := get("last"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return p, fmt.Errorf("bad last %q: want a positive duration", v)
		}
		p.to = rec.Now()
		p.from = p.to - int64(d)
	}
	if v := get("from"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return p, fmt.Errorf("bad from %q: want nanoseconds", v)
		}
		p.from = n
	}
	if v := get("to"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return p, fmt.Errorf("bad to %q: want nanoseconds", v)
		}
		p.to = n
	}
	if p.from > p.to {
		return p, fmt.Errorf("from %d > to %d", p.from, p.to)
	}
	if v := get("window"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return p, fmt.Errorf("bad window %q: want a positive duration", v)
		}
		p.window = int64(d)
	}
	return p, nil
}

// clampReported bounds the From/To echoed in responses so defaults
// don't leak MinInt64/MaxInt64 into the JSON.
func clampReported(rec *Recorder, p historyParams) (int64, int64) {
	from, to := p.from, p.to
	if from == math.MinInt64 {
		from = 0
	}
	if to == math.MaxInt64 {
		to = rec.Now()
	}
	if from > to {
		from = to
	}
	return from, to
}

const historyDisabledMsg = "metrics history disabled: run with -history to record (obs.Registry.StartRecorder)"

// historyRangeHandler serves GET /metrics/range: raw points or
// aggregate windows for one or more series (comma-separated), or the
// series catalog when no series parameter is given.
func historyRangeHandler(r *Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		rec := r.History()
		if rec == nil {
			http.Error(w, historyDisabledMsg, http.StatusNotImplemented)
			return
		}
		q := req.URL.Query()
		p, err := parseHistoryParams(rec, q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := RangeResponse{
			Clock:      rec.ClockName(),
			IntervalNS: int64(rec.Interval()),
			WindowNS:   p.window,
		}
		resp.From, resp.To = clampReported(rec, p)
		names := strings.TrimSpace(q.Get("series"))
		if names == "" {
			st := rec.Store().Stats()
			resp.Names = rec.Store().SeriesNames()
			resp.Stats = &st
			writeHistoryJSON(w, resp)
			return
		}
		missing := 0
		for _, name := range strings.Split(names, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			sr := SeriesRange{Name: name}
			kind, ok := rec.Store().Kind(name)
			if !ok {
				sr.Kind = "missing"
				missing++
				resp.Series = append(resp.Series, sr)
				continue
			}
			sr.Kind = kind.String()
			if p.window > 0 {
				sr.Windows = rec.Store().Windows(name, p.window, p.from, p.to)
			} else {
				sr.Points = rec.Store().Range(name, p.from, p.to)
			}
			resp.Series = append(resp.Series, sr)
		}
		if len(resp.Series) == 0 {
			http.Error(w, "series parameter named no series", http.StatusBadRequest)
			return
		}
		if missing == len(resp.Series) {
			http.Error(w, fmt.Sprintf("unknown series %s", names), http.StatusNotFound)
			return
		}
		// Window alignment in Validate assumes a uniform width; clear the
		// echo when a series answered from raw-downsample fallback anyway.
		writeHistoryJSON(w, resp)
	}
}

func writeHistoryJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
