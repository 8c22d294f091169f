package obs

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	om "repro/internal/obs/openmetrics"
)

func TestSanitizeMetricName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"core.sampler.gaps", "core_sampler_gaps"},
		{"span.runner.campaign.wall_ns", "span_runner_campaign_wall_ns"},
		{"a-b", "a_b"},
		{"a.b", "a_b"},
		{"9lives", "_9lives"},
		{"0", "_0"},
		{"", "_"},
		{"already_fine:colons_ok", "already_fine:colons_ok"},
		{"héllo", "h_llo"}, // é is one rune (two UTF-8 bytes): one '_' per rune, not per byte
		{"faults.injected.sysfs_eagain", "faults_injected_sysfs_eagain"},
	}
	for _, c := range cases {
		got := SanitizeMetricName(c.in)
		if got != c.want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", c.in, got, c.want)
		}
		if !om.ValidName(got) {
			t.Errorf("SanitizeMetricName(%q) = %q is not a valid exposition name", c.in, got)
		}
	}
}

func TestBucketUpperMonotone(t *testing.T) {
	prev := math.Inf(-1)
	for i := 0; i < histBuckets; i++ {
		u := bucketUpper(i)
		if !(u > prev) {
			t.Fatalf("bucketUpper(%d) = %v not > bucketUpper(%d) = %v", i, u, i-1, prev)
		}
		prev = u
	}
	if !math.IsInf(bucketUpper(histBuckets-1), +1) {
		t.Fatalf("overflow bucket upper = %v, want +Inf", bucketUpper(histBuckets-1))
	}
	// A bucket's midpoint must not exceed its upper bound, or the
	// quantile estimates and the exposition would disagree about which
	// bucket a value belongs to.
	for i := 1; i < histBuckets-1; i++ {
		if bucketValue(i) > bucketUpper(i) {
			t.Fatalf("bucketValue(%d) = %v > bucketUpper(%d) = %v", i, bucketValue(i), i, bucketUpper(i))
		}
		if bucketValue(i) <= bucketUpper(i-1) {
			t.Fatalf("bucketValue(%d) = %v not above the previous bound %v", i, bucketValue(i), bucketUpper(i-1))
		}
	}
}

// TestOpenMetricsRoundTrip holds the renderer and the parser to each
// other: everything WriteOpenMetrics emits must parse and validate, and
// the parsed values must agree with Snapshot().
func TestOpenMetricsRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.sampler.gaps").Add(7)
	r.Counter("trace.samples_recorded").Add(12345)
	r.Counter("9weird.name-with-dash").Add(1)
	r.Counter("already_total").Add(3)
	r.Gauge("leakage.snr").Set(14.25)
	r.Gauge("covert.ber").Set(0)
	r.Gauge("neg.gauge").Set(-2.5)
	h := r.Histogram("runner.shard_ns")
	for _, v := range []float64{0, 1e-12, 0.4, 0.5, 1, 3, 3.1, 1e9, math.Exp2(50)} {
		h.Observe(v) // spans underflow, interior, and overflow buckets
	}

	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	e, err := om.Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("validate: %v\n%s", err, buf.String())
	}

	snap := r.Snapshot()
	for name, want := range snap.Counters {
		en := SanitizeMetricName(name)
		f := e.Family(en)
		if f == nil {
			t.Fatalf("counter %q: no family %q in exposition", name, en)
		}
		if f.Type != "counter" {
			t.Fatalf("counter %q exposed as %q", name, f.Type)
		}
		sample := en
		if !strings.HasSuffix(sample, "_total") {
			sample += "_total"
		}
		s, ok := f.Sample(sample, "")
		if !ok {
			t.Fatalf("counter %q: no sample %q", name, sample)
		}
		if int64(s.Value) != want {
			t.Fatalf("counter %q = %v, snapshot says %d", name, s.Value, want)
		}
		if !strings.Contains(f.Help, name) {
			t.Fatalf("counter %q: HELP %q does not carry the internal name", name, f.Help)
		}
	}
	for name, want := range snap.Gauges {
		f := e.Family(SanitizeMetricName(name))
		if f == nil || f.Type != "gauge" {
			t.Fatalf("gauge %q missing or mistyped", name)
		}
		s, ok := f.Sample(SanitizeMetricName(name), "")
		if !ok || s.Value != want {
			t.Fatalf("gauge %q = %v ok=%v, snapshot says %v", name, s.Value, ok, want)
		}
	}
	f := e.Family("runner_shard_ns")
	if f == nil || f.Type != "histogram" {
		t.Fatalf("histogram family missing or mistyped: %+v", f)
	}
	count, _ := f.Sample("runner_shard_ns_count", "")
	if int64(count.Value) != snap.Histograms["runner.shard_ns"].Count {
		t.Fatalf("_count = %v, snapshot count = %d", count.Value, snap.Histograms["runner.shard_ns"].Count)
	}
	sum, _ := f.Sample("runner_shard_ns_sum", "")
	if math.Abs(sum.Value-h.Sum()) > 1e-9*math.Abs(h.Sum()) {
		t.Fatalf("_sum = %v, histogram sum = %v", sum.Value, h.Sum())
	}
	inf, ok := f.Sample("runner_shard_ns_bucket", "+Inf")
	if !ok || int64(inf.Value) != h.Count() {
		t.Fatalf("+Inf bucket = %v ok=%v, want %d", inf.Value, ok, h.Count())
	}
}

// TestOpenMetricsNameCollision checks that two internal names mapping
// onto the same exposition name are disambiguated deterministically.
func TestOpenMetricsNameCollision(t *testing.T) {
	r := NewRegistry()
	r.Counter("a-b").Add(1)
	r.Counter("a.b").Add(2)
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	e, err := om.Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	// Lexical order: "a-b" sorts before "a.b", so it wins the bare name.
	fb := e.Family("a_b")
	f2 := e.Family("a_b_2")
	if fb == nil || f2 == nil {
		t.Fatalf("families = %v, want a_b and a_b_2", e.Names())
	}
	if s, _ := fb.Sample("a_b_total", ""); s.Value != 1 {
		t.Fatalf("a_b_total = %v, want 1 (from a-b)", s.Value)
	}
	if s, _ := f2.Sample("a_b_2_total", ""); s.Value != 2 {
		t.Fatalf("a_b_2_total = %v, want 2 (from a.b)", s.Value)
	}
	if !strings.Contains(fb.Help, "a-b") || !strings.Contains(f2.Help, "a.b") {
		t.Fatalf("HELP lines lost the internal names: %q / %q", fb.Help, f2.Help)
	}
}

// TestMetricsEndpointAgreesWithSnapshot scrapes /metrics and
// /metrics/snapshot off the same handler and cross-checks them — the
// acceptance criterion for the exposition endpoint.
func TestMetricsEndpointAgreesWithSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim.ticks").Add(99)
	r.Gauge("runner.utilization").Set(0.75)
	r.Histogram("attacker.sample_rate_hz").Observe(28.5)
	srv := httptest.NewServer(NewHandler(r))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != OpenMetricsContentType {
		t.Fatalf("/metrics content type = %q", ct)
	}
	e, err := om.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if s, ok := e.Family("sim_ticks").Sample("sim_ticks_total", ""); !ok || int64(s.Value) != snap.Counter("sim.ticks") {
		t.Fatalf("sim_ticks_total = %v ok=%v, snapshot %d", s.Value, ok, snap.Counter("sim.ticks"))
	}
	if s, ok := e.Family("runner_utilization").Sample("runner_utilization", ""); !ok || s.Value != snap.Gauge("runner.utilization") {
		t.Fatalf("runner_utilization = %v ok=%v", s.Value, ok)
	}
	hs, _ := snap.Histogram("attacker.sample_rate_hz")
	if s, ok := e.Family("attacker_sample_rate_hz").Sample("attacker_sample_rate_hz_count", ""); !ok || int64(s.Value) != hs.Count {
		t.Fatalf("histogram count over /metrics = %v ok=%v, snapshot %d", s.Value, ok, hs.Count)
	}

	// Method guard: non-GET must be rejected on every obs endpoint.
	for _, path := range []string{"/metrics", "/metrics/snapshot", "/healthz", "/trace"} {
		resp, err := http.Post(srv.URL+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s status = %d, want 405", path, resp.StatusCode)
		}
	}
}
