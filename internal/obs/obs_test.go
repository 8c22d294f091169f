package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := r.Counter("x").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("y")
	g.Set(2.5)
	if got := r.Gauge("y").Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	// Same name must return the same handle.
	if r.Counter("x") != c || r.Gauge("y") != g {
		t.Fatal("registry returned a fresh handle for an existing name")
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("zero-value histogram should report zeros")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 10 || h.Mean() != 2.5 {
		t.Fatalf("sum/mean = %v/%v", h.Sum(), h.Mean())
	}
	if h.Min() != 1 || h.Max() != 4 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramPercentiles(t *testing.T) {
	var h Histogram
	// 1..1000 uniformly: p50 ~ 500, p95 ~ 950, p99 ~ 990.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	check := func(q, want float64) {
		got := h.Quantile(q)
		if got < want*0.85 || got > want*1.15 {
			t.Fatalf("q%.2f = %v, want within 15%% of %v", q, got, want)
		}
	}
	check(0.50, 500)
	check(0.95, 950)
	check(0.99, 990)
	if h.Quantile(0) < 1 || h.Quantile(1) > 1000 {
		t.Fatalf("extreme quantiles out of envelope: %v %v", h.Quantile(0), h.Quantile(1))
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-5)
	h.Observe(math.Exp2(60)) // beyond the top bucket
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != -5 {
		t.Fatalf("min = %v, want -5", h.Min())
	}
	if got := h.Quantile(1); got != h.Max() {
		t.Fatalf("q1 = %v, want max %v", got, h.Max())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w*per + i + 1))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	if h.Min() != 1 || h.Max() != workers*per {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	wantSum := float64(workers*per) * float64(workers*per+1) / 2
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
}

type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

func TestSpanRecordsWallAndSim(t *testing.T) {
	r := NewRegistry()
	clk := &fakeClock{}
	sp := r.StartSpan("capture", clk)
	clk.now = 5 * time.Second
	sp.End()

	clk.now = 7 * time.Second
	sp = r.StartSpan("capture", clk)
	clk.now = 8 * time.Second
	sp.End()

	snap := r.Snapshot()
	wall, ok := snap.Histogram("span.capture.wall_ns")
	if !ok || wall.Count != 2 || wall.Min < 0 {
		t.Fatalf("wall histogram = %+v ok=%v", wall, ok)
	}
	sim, ok := snap.Histogram("span.capture.sim_ns")
	if !ok || sim.Count != 2 {
		t.Fatalf("sim histogram = %+v ok=%v", sim, ok)
	}
	// Sim durations are exact: the spans ran for 5 s and 1 s of sim time.
	if sim.Min != float64(time.Second) || sim.Max != float64(5*time.Second) ||
		sim.Mean != float64(3*time.Second) {
		t.Fatalf("sim histogram = %+v, want min 1s, max 5s, mean 3s", sim)
	}
}

func TestSpanWithoutClock(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("train", nil)
	sp.End()
	if _, ok := r.Snapshot().Histogram("span.train.sim_ns"); ok {
		t.Fatal("clockless span recorded a sim histogram")
	}
	if _, ok := r.Snapshot().Histogram("span.train.wall_ns"); !ok {
		t.Fatal("clockless span missing wall histogram")
	}
}

func TestSnapshotAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.captures").Add(7)
	r.Gauge("sim.ratio").Set(120.5)
	r.Histogram("attacker.sample_rate_hz").Observe(28.57)
	s := r.Snapshot()
	if s.Counter("core.captures") != 7 {
		t.Fatalf("snapshot counter = %d", s.Counter("core.captures"))
	}
	if s.Gauge("sim.ratio") != 120.5 {
		t.Fatalf("snapshot gauge = %v", s.Gauge("sim.ratio"))
	}
	h, ok := s.Histogram("attacker.sample_rate_hz")
	if !ok || h.Count != 1 {
		t.Fatalf("snapshot histogram = %+v ok=%v", h, ok)
	}

	var b strings.Builder
	if err := s.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{"core.captures", "sim.ratio", "attacker.sample_rate_hz", "Hz"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text snapshot missing %q:\n%s", want, text)
		}
	}
}

func TestResetZeroesInPlace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	h := r.Histogram("h")
	h.Observe(3)
	r.StartSpan("s", nil).End()
	r.Reset()
	s := r.Snapshot()
	if s.Counter("a") != 0 {
		t.Fatalf("counter survived reset: %d", s.Counter("a"))
	}
	if hs, _ := s.Histogram("h"); hs.Count != 0 || hs.Max != 0 {
		t.Fatalf("histogram survived reset: %+v", hs)
	}
	if hs, ok := s.Histogram("span.s.wall_ns"); !ok || hs.Count != 0 {
		t.Fatalf("span histogram survived reset: %+v ok=%v", hs, ok)
	}
	// Cached handles must keep recording into the zeroed metrics.
	c.Inc()
	h.Observe(7)
	s = r.Snapshot()
	if s.Counter("a") != 1 {
		t.Fatalf("cached counter detached after reset: %d", s.Counter("a"))
	}
	if hs, _ := s.Histogram("h"); hs.Count != 1 || hs.Max != 7 {
		t.Fatalf("cached histogram detached after reset: %+v", hs)
	}
}

// TestDefaultHelpers checks deltas on the process-wide registry, which
// keeps its values across repeated runs of the test (-count=N).
func TestDefaultHelpers(t *testing.T) {
	name := "obs_test.helper"
	before := Default.Snapshot()
	C(name).Inc()
	G(name).Set(1)
	H(name).Observe(1)
	after := Default.Snapshot()
	hb, _ := before.Histogram(name)
	ha, _ := after.Histogram(name)
	if after.Counter(name)-before.Counter(name) != 1 || after.Gauge(name) != 1 || ha.Count-hb.Count != 1 {
		t.Fatal("default helpers did not record")
	}
}
