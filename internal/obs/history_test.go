package obs

import (
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs/tsdb"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// simRecorder wires a registry to a recorder on a hand-cranked clock.
func simRecorder(r *Registry, interval time.Duration) (*Recorder, *fakeClock) {
	clk := &fakeClock{}
	rec := r.NewRecorder(RecorderOptions{Interval: interval, Clock: clk})
	r.history.Store(rec)
	return rec, clk
}

func TestRecorderSamplesRegistry(t *testing.T) {
	r := NewRegistry()
	rec, clk := simRecorder(r, time.Second)
	c := r.Counter("work.done")
	g := r.Gauge("work.level")
	h := r.Histogram("work.latency_ns")

	for i := 1; i <= 5; i++ {
		c.Add(10)
		g.Set(float64(i))
		h.Observe(float64(i * 100))
		clk.now += time.Second
		rec.Sample()
	}

	st := rec.Store()
	if k, ok := st.Kind("work.done"); !ok || k != tsdb.Counter {
		t.Fatalf("work.done kind = %v %v", k, ok)
	}
	if k, ok := st.Kind("work.level"); !ok || k != tsdb.Gauge {
		t.Fatalf("work.level kind = %v %v", k, ok)
	}
	// Histogram expansion: .count counter plus summary gauges.
	if k, ok := st.Kind("work.latency_ns.count"); !ok || k != tsdb.Counter {
		t.Fatalf("latency .count kind = %v %v", k, ok)
	}
	for _, suffix := range []string{".mean", ".min", ".max", ".p50", ".p95", ".p99"} {
		if k, ok := st.Kind("work.latency_ns" + suffix); !ok || k != tsdb.Gauge {
			t.Fatalf("latency %s kind = %v %v", suffix, k, ok)
		}
	}
	pts := st.Range("work.done", 0, 1<<62)
	if len(pts) != 5 || pts[0].V != 10 || pts[4].V != 50 {
		t.Fatalf("work.done points = %+v", pts)
	}
	if pts[0].T != int64(time.Second) {
		t.Fatalf("first sample at %d, want sim 1s", pts[0].T)
	}
	if rec.ClockName() != "sim" {
		t.Fatalf("clock = %q", rec.ClockName())
	}
}

func TestRecorderSelfMetricsLazy(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.Snapshot().Counters["obs.tsdb.samples"]; ok {
		t.Fatal("obs.tsdb.samples exists before any Sample")
	}
	rec, clk := simRecorder(r, time.Second)
	// Building the recorder alone must not register anything either —
	// that is what keeps non-recording runs' counter sets unchanged.
	if _, ok := r.Snapshot().Counters["obs.tsdb.samples"]; ok {
		t.Fatal("obs.tsdb.samples exists before first Sample")
	}
	clk.now = time.Second
	rec.Sample()
	s := r.Snapshot()
	if s.Counters["obs.tsdb.samples"] != 1 {
		t.Fatalf("obs.tsdb.samples = %d after one sample", s.Counters["obs.tsdb.samples"])
	}
	if _, ok := s.Gauges["obs.tsdb.series"]; !ok {
		t.Fatal("obs.tsdb.series gauge missing after Sample")
	}
}

func TestRecorderEvictionCounter(t *testing.T) {
	r := NewRegistry()
	clk := &fakeClock{}
	rec := r.NewRecorder(RecorderOptions{Interval: time.Second, Clock: clk, RawCapacity: 2,
		Tiers: []tsdb.TierSpec{}})
	r.Counter("x")
	for i := 0; i < 6; i++ {
		clk.now += time.Second
		rec.Sample()
	}
	if v := r.Counter("obs.tsdb.evictions").Value(); v <= 0 {
		t.Fatalf("obs.tsdb.evictions = %d after overflowing a 2-point ring", v)
	}
}

func TestRecorderFilter(t *testing.T) {
	r := NewRegistry()
	clk := &fakeClock{}
	rec := r.NewRecorder(RecorderOptions{Interval: time.Second, Clock: clk,
		Filter: func(name string) bool { return name == "keep.me" }})
	r.Counter("keep.me").Add(1)
	r.Counter("drop.me").Add(1)
	clk.now = time.Second
	rec.Sample()
	names := rec.Store().SeriesNames()
	if len(names) != 1 || names[0] != "keep.me" {
		t.Fatalf("filtered series = %v", names)
	}
}

func TestWindowedCounterDelta(t *testing.T) {
	r := NewRegistry()
	rec, clk := simRecorder(r, time.Second)
	c := r.Counter("gaps")
	if _, ok := rec.WindowedCounterDelta("gaps", 5); ok {
		t.Fatal("delta reported with no history")
	}
	for i := 0; i < 10; i++ {
		c.Add(3)
		clk.now += time.Second
		rec.Sample()
	}
	d, ok := rec.WindowedCounterDelta("gaps", 5)
	if !ok || d != 15 {
		t.Fatalf("delta over 5 windows = %g ok=%v, want 15", d, ok)
	}
	// Full-retention window covers everything sampled so far: the first
	// point is 3 (sampled after the first Add), so the delta is 27.
	d, ok = rec.WindowedCounterDelta("gaps", 1000)
	if !ok || d != 27 {
		t.Fatalf("delta over full history = %g ok=%v, want 27", d, ok)
	}
}

func TestHistoryEndpointsDisabled(t *testing.T) {
	r := NewRegistry()
	srv := httptest.NewServer(NewHandler(r))
	defer srv.Close()
	body, code := getBody(t, srv.URL+"/metrics/range")
	if code != http.StatusNotImplemented || !strings.Contains(body, "-history") {
		t.Fatalf("/metrics/range without recorder = %d %q", code, body)
	}
}

func TestMetricsRangeEndpoint(t *testing.T) {
	r := NewRegistry()
	rec, clk := simRecorder(r, time.Second)
	c := r.Counter("trace.gaps_recorded")
	for i := 0; i < 30; i++ {
		c.Add(int64(i % 3))
		clk.now += time.Second
		rec.Sample()
	}
	srv := httptest.NewServer(NewHandler(r))
	defer srv.Close()

	// Catalog mode.
	body, code := getBody(t, srv.URL+"/metrics/range")
	if code != http.StatusOK {
		t.Fatalf("catalog = %d %q", code, body)
	}
	var cat RangeResponse
	if err := json.Unmarshal([]byte(body), &cat); err != nil {
		t.Fatal(err)
	}
	if err := cat.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cat.Names) == 0 || cat.Stats == nil || cat.Clock != "sim" {
		t.Fatalf("catalog = %+v", cat)
	}

	// Point mode with a series list including one missing name.
	body, code = getBody(t, srv.URL+"/metrics/range?series=trace.gaps_recorded,no.such&last=10s")
	if code != http.StatusOK {
		t.Fatalf("points = %d %q", code, body)
	}
	var resp RangeResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if err := resp.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(resp.Series) != 2 || resp.Series[0].Kind != "counter" || resp.Series[1].Kind != "missing" {
		t.Fatalf("series = %+v", resp.Series)
	}
	// Bounds are inclusive: samples at sim 20..30 s land in last=10s.
	if n := len(resp.Series[0].Points); n != 11 {
		t.Fatalf("last=10s returned %d points, want 11", n)
	}

	// Window mode.
	body, code = getBody(t, srv.URL+"/metrics/range?series=trace.gaps_recorded&window=5s")
	if code != http.StatusOK {
		t.Fatalf("windows = %d %q", code, body)
	}
	resp = RangeResponse{}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if err := resp.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(resp.Series[0].Windows) == 0 {
		t.Fatalf("no windows: %q", body)
	}

	// Errors: all-missing 404, bad params 400, non-GET 405.
	if _, code := getBody(t, srv.URL+"/metrics/range?series=no.such"); code != http.StatusNotFound {
		t.Fatalf("all-missing code = %d", code)
	}
	if _, code := getBody(t, srv.URL+"/metrics/range?last=banana"); code != http.StatusBadRequest {
		t.Fatalf("bad last code = %d", code)
	}
	if _, code := getBody(t, srv.URL+"/metrics/range?from=9&to=3"); code != http.StatusBadRequest {
		t.Fatalf("inverted range code = %d", code)
	}
	post, err := http.Post(srv.URL+"/metrics/range", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST code = %d", post.StatusCode)
	}
}

func TestStartRecorderSamplesPeriodically(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(1)
	ctx, cancel := context.WithCancel(context.Background())
	rec := r.StartRecorder(ctx, RecorderOptions{Interval: 10 * time.Millisecond})
	if r.History() != rec {
		t.Fatal("StartRecorder did not install itself")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if pts := rec.Store().Range("x", 0, 1<<62); len(pts) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recorder never accumulated 3 samples")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	// After cancellation the history stays installed and queryable.
	if r.History() == nil {
		t.Fatal("history uninstalled on cancel")
	}
	if rec.ClockName() != "wall" {
		t.Fatalf("clock = %q", rec.ClockName())
	}
}

// scrubAt replaces the volatile "at" timestamps so the verbose healthz
// body goldens cleanly.
var scrubAt = regexp.MustCompile(`"at": "[^"]*"`)

func TestHealthzVerboseGolden(t *testing.T) {
	r := NewRegistry()
	rec, clk := simRecorder(r, time.Second)
	gaps := r.Counter("trace.gaps_recorded")
	samples := r.Counter("trace.samples_recorded")
	// A burst: 8 of 10 recent samples are gaps — the windowed gap-ratio
	// rule must fail while the shard/ceiling rules pass.
	for i := 0; i < 10; i++ {
		samples.Add(10)
		if i >= 5 {
			gaps.Add(16)
		}
		clk.now += time.Second
		rec.Sample()
	}
	r.Watch()
	srv := httptest.NewServer(NewHandler(r))
	defer srv.Close()

	body, code := getBody(t, srv.URL+"/healthz?verbose=1")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("verbose healthz code = %d, body %q", code, body)
	}
	var parsed struct {
		Healthy  bool      `json:"healthy"`
		Verdicts []Verdict `json:"verdicts"`
	}
	if err := json.Unmarshal([]byte(body), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Healthy || len(parsed.Verdicts) != 4 {
		t.Fatalf("parsed = %+v", parsed)
	}

	got := scrubAt.ReplaceAll([]byte(body), []byte(`"at": "SCRUBBED"`))
	path := filepath.Join("testdata", "healthz_verbose.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if string(got) != string(want) {
		t.Errorf("verbose healthz changed:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
