package obs

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestRatioRule covers WindowedRatioRule's no-history branch, which
// judges cumulative totals: threshold, detail text, observed/threshold
// values, and the zero-denominator pass.
func TestRatioRule(t *testing.T) {
	rule := WindowedRatioRule("gap_ratio", "gaps", "samples", 0.5, DefaultHealthWindows)
	cur := Snapshot{Counters: map[string]int64{"gaps": 3, "samples": 10}}
	if v := rule.Eval(EvalInput{Cur: cur}); !v.OK {
		t.Fatal("30% gaps flagged at a 50% threshold")
	}
	cur.Counters["gaps"] = 6
	v := rule.Eval(EvalInput{Cur: cur})
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
	if v := rule.Eval(EvalInput{Cur: Snapshot{Counters: map[string]int64{"gaps": 5}}}); !v.OK {
		t.Fatal("zero denominator flagged")
	}
}

func TestGaugeCeilingRule(t *testing.T) {
	rule := GaugeCeilingRule("consec", "core.sampler.consecutive_gaps", 64)
	if v := rule.Eval(EvalInput{Cur: Snapshot{Gauges: map[string]float64{"core.sampler.consecutive_gaps": 64}}}); !v.OK {
		t.Fatal("value at the ceiling flagged")
	}
	v := rule.Eval(EvalInput{Cur: Snapshot{Gauges: map[string]float64{"core.sampler.consecutive_gaps": 65}}})
	if v.OK {
		t.Fatal("value above the ceiling passed")
	}
	if v.Window != "instant" || v.Observed != 65 {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestWindowedRatioRuleRecovers(t *testing.T) {
	r := NewRegistry()
	clk := &fakeClock{}
	rec := r.NewRecorder(RecorderOptions{Interval: time.Second, Clock: clk})
	r.history.Store(rec)
	gaps := r.Counter("gaps")
	samples := r.Counter("samples")
	rule := WindowedRatioRule("gap_ratio", "gaps", "samples", 0.5, 5)

	// A fault burst: 9 of 10 samples are gaps during the first seconds.
	for i := 0; i < 5; i++ {
		samples.Add(2)
		gaps.Add(2)
		clk.now += time.Second
		rec.Sample()
	}
	in := EvalInput{Cur: r.Snapshot(), History: rec}
	v := rule.Eval(in)
	if v.OK {
		t.Fatalf("100%% gaps in-window passed: %+v", v)
	}
	if v.Window != "5×1s" {
		t.Fatalf("window = %q, want 5×1s", v.Window)
	}

	// The burst stops; clean sampling continues. Once the burst ages out
	// of the 5-interval window the rule recovers even though the
	// cumulative ratio is still ~29%... and a cumulative 0.15-threshold
	// rule would never recover.
	for i := 0; i < 8; i++ {
		samples.Add(5)
		clk.now += time.Second
		rec.Sample()
	}
	v = rule.Eval(EvalInput{Cur: r.Snapshot(), History: rec})
	if !v.OK {
		t.Fatalf("recovered window still failing: %+v", v)
	}
	if v.Window != "5×1s" {
		t.Fatalf("window = %q after recovery", v.Window)
	}

	// Cumulative fallback: without history the same rule judges totals.
	v = rule.Eval(EvalInput{Cur: r.Snapshot()})
	if v.Window != "cumulative" {
		t.Fatalf("no-history window = %q, want cumulative", v.Window)
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
	if last := w.Last(); len(last) != 1 || last[0].Detail != got[0].Detail {
		t.Fatalf("Last() = %+v", last)
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
	if last := w.Last(); len(last) != 0 {
		t.Fatalf("Last() after recovery = %+v", last)
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
