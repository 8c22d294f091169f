package obs

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/golden"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// TestRatioRule covers RatioRule's cumulative judgement: threshold,
// detail text, observed/threshold values, and the zero-denominator pass.
func TestRatioRule(t *testing.T) {
	rule := RatioRule("gap_ratio", "gaps", "samples", 0.5)
	cur := Snapshot{Counters: map[string]int64{"gaps": 3, "samples": 10}}
	if v := rule.Eval(cur); !v.OK {
		t.Fatal("30% gaps flagged at a 50% threshold")
	}
	cur.Counters["gaps"] = 6
	v := rule.Eval(cur)
	if v.OK {
		t.Fatal("60% gaps passed a 50% threshold")
	}
	if !strings.Contains(v.Detail, "gaps/samples") {
		t.Fatalf("detail = %q", v.Detail)
	}
	if v.Window != "cumulative" || v.Observed != 0.6 || v.Threshold != 0.5 {
		t.Fatalf("verdict = %+v", v)
	}
	// Zero denominator: no data is not a violation.
	if v := rule.Eval(Snapshot{Counters: map[string]int64{"gaps": 5}}); !v.OK {
		t.Fatal("zero denominator flagged")
	}
}

func TestGaugeCeilingRule(t *testing.T) {
	rule := GaugeCeilingRule("consec", "core.sampler.consecutive_gaps", 64)
	if v := rule.Eval(Snapshot{Gauges: map[string]float64{"core.sampler.consecutive_gaps": 64}}); !v.OK {
		t.Fatal("value at the ceiling flagged")
	}
	v := rule.Eval(Snapshot{Gauges: map[string]float64{"core.sampler.consecutive_gaps": 65}})
	if v.OK {
		t.Fatal("value above the ceiling passed")
	}
	if v.Window != "instant" || v.Observed != 65 {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestWatcherEvaluate(t *testing.T) {
	r := NewRegistry()
	r.Counter("trace.samples_recorded").Add(10)
	r.Counter("trace.gaps_recorded").Add(9) // 90% gaps: clearly unhealthy
	w := r.Watch()

	var cbCount int
	w.OnViolation(func(v Violation) { cbCount++ })

	got := w.Evaluate()
	if len(got) != 1 || got[0].Rule != "trace.gap_ratio" {
		t.Fatalf("violations = %+v, want one trace.gap_ratio", got)
	}
	if cbCount != 1 {
		t.Fatalf("callback invoked %d times", cbCount)
	}
	if n := r.Counter("obs.watch.violations").Value(); n != 1 {
		t.Fatalf("obs.watch.violations = %d", n)
	}
	// The violation also lands in the event ring as a WARN.
	snap := r.Snapshot()
	found := false
	for _, e := range snap.Events {
		if strings.Contains(e.Msg, "WARN watch: trace.gap_ratio") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no WARN event recorded; events = %+v", snap.Events)
	}

	// Recovery: once the ratio drops below threshold, Evaluate is clean.
	r.Counter("trace.samples_recorded").Add(100)
	if got := w.Evaluate(); len(got) != 0 {
		t.Fatalf("violations after recovery = %+v", got)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	// No watcher installed: /healthz reports ok with a note.
	r := NewRegistry()
	srv := httptest.NewServer(NewHandler(r))
	defer srv.Close()
	body, code := getBody(t, srv.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "no watch rules") {
		t.Fatalf("no-watcher healthz = %d %q", code, body)
	}

	// Healthy registry with a watcher: plain ok.
	r.Watch()
	body, code = getBody(t, srv.URL+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthy healthz = %d %q", code, body)
	}

	// Unhealthy: a stuck sampler trips the consecutive-gap ceiling.
	r.Gauge("core.sampler.consecutive_gaps").Set(1000)
	body, code = getBody(t, srv.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unhealthy healthz code = %d, body %q", code, body)
	}
	if !strings.Contains(body, "core.sampler.consecutive_gaps") {
		t.Fatalf("unhealthy healthz body = %q", body)
	}

	// Recovery flips it back to 200.
	r.Gauge("core.sampler.consecutive_gaps").Set(0)
	if _, code := getBody(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("recovered healthz code = %d", code)
	}
}

func getBody(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.StatusCode
}

func TestWatcherRunStopsOnCancel(t *testing.T) {
	r := NewRegistry()
	r.Counter("runner.shards").Add(4)
	r.Counter("runner.shards_failed").Add(4) // 100% failures
	w := r.Watch()

	fired := make(chan struct{}, 16)
	w.OnViolation(func(Violation) {
		select {
		case fired <- struct{}{}:
		default:
		}
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		w.Run(ctx, 10*time.Millisecond)
		close(done)
	}()
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("periodic evaluation never fired")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

// TestHealthzDoesNotRecord pins that /healthz is read-only: polling an
// unhealthy registry must not increment obs.watch.violations or append
// WARN events, or the counter and log volume would track how often a
// prober polls rather than what the run did.
func TestHealthzDoesNotRecord(t *testing.T) {
	r := NewRegistry()
	r.Counter("runner.shards").Add(4)
	r.Counter("runner.shards_failed").Add(4) // 100% failures
	w := r.Watch()
	fired := 0
	w.OnViolation(func(Violation) { fired++ })
	srv := httptest.NewServer(NewHandler(r))
	defer srv.Close()

	events := len(r.Snapshot().Events)
	for _, path := range []string{"/healthz", "/healthz?verbose=1"} {
		for i := 0; i < 2; i++ {
			if _, code := getBody(t, srv.URL+path); code != http.StatusServiceUnavailable {
				t.Fatalf("GET %s code = %d, want 503", path, code)
			}
		}
	}
	if n := r.Counter("obs.watch.violations").Value(); n != 0 {
		t.Fatalf("obs.watch.violations = %d after four /healthz GETs, want 0", n)
	}
	if n := len(r.Snapshot().Events); n != events {
		t.Fatalf("event ring grew from %d to %d on /healthz GETs", events, n)
	}
	if fired != 0 {
		t.Fatalf("OnViolation fired %d times on /healthz GETs", fired)
	}
}

// scrubAt replaces the volatile "at" timestamps so the verbose healthz
// body goldens cleanly.
var scrubAt = regexp.MustCompile(`"at": "[^"]*"`)

func TestHealthzVerboseGolden(t *testing.T) {
	r := NewRegistry()
	// 80 of 100 recorded samples are gaps: the gap-ratio rule must fail
	// while the shard and ceiling rules pass.
	r.Counter("trace.samples_recorded").Add(100)
	r.Counter("trace.gaps_recorded").Add(80)
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
	golden.Check(t, filepath.Join("testdata", "healthz_verbose.golden"), got, *update)
}
