package resilience

import (
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// fakeClock is a hand-advanced clock for deterministic breaker tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func newTestBreaker(t *testing.T, clk *fakeClock, mutate func(*BreakerConfig)) *Breaker {
	t.Helper()
	cfg := BreakerConfig{
		FailureThreshold:  3,
		OpenFor:           10 * time.Millisecond,
		HalfOpenSuccesses: 2,
		Now:               clk.Now,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	b, err := NewBreaker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{}
	b := newTestBreaker(t, clk, nil)

	if got := b.State(); got != Closed {
		t.Fatalf("initial state = %v, want closed", got)
	}
	// Two failures stay closed; the third trips.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected request %d", i)
		}
		b.OnFailure()
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state after 2 failures = %v, want closed", got)
	}
	b.Allow()
	b.OnFailure()
	if got := b.State(); got != Open {
		t.Fatalf("state after threshold failures = %v, want open", got)
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
	// Open: short-circuits until the window expires.
	if b.Allow() {
		t.Fatal("open breaker admitted a request inside the window")
	}
	if b.ShortCircuits() == 0 {
		t.Fatal("short-circuit not counted")
	}
	clk.Advance(11 * time.Millisecond)
	// Window expired: one probe admitted (half-open), a second is not.
	if !b.Allow() {
		t.Fatal("expired breaker rejected the probe")
	}
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state during probe = %v, want half-open", got)
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Probe succeeds, but HalfOpenSuccesses=2 demands another.
	b.OnSuccess()
	if !b.Allow() {
		t.Fatal("breaker rejected the second probe after a success")
	}
	b.OnSuccess()
	if got := b.State(); got != Closed {
		t.Fatalf("state after enough probe successes = %v, want closed", got)
	}

	// A failing probe re-opens immediately.
	for i := 0; i < 3; i++ {
		b.Allow()
		b.OnFailure()
	}
	clk.Advance(11 * time.Millisecond)
	b.Allow()
	b.OnFailure()
	if got := b.State(); got != Open {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if b.Trips() != 3 {
		t.Fatalf("trips = %d, want 3 (initial + re-trip + failed probe)", b.Trips())
	}
}

func TestBreakerSuccessResetsFailureRun(t *testing.T) {
	clk := &fakeClock{}
	b := newTestBreaker(t, clk, nil)
	// failure, failure, success, failure, failure: never reaches 3
	// consecutive.
	for _, ok := range []bool{false, false, true, false, false} {
		b.Allow()
		if ok {
			b.OnSuccess()
		} else {
			b.OnFailure()
		}
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v, want closed (failure run was broken)", got)
	}
}

func TestBreakerProbeJitterDeterministic(t *testing.T) {
	windows := func(seed int64) []time.Duration {
		clk := &fakeClock{}
		b := newTestBreaker(t, clk, func(cfg *BreakerConfig) {
			cfg.ProbeJitterFrac = 0.5
			cfg.Rand = sim.NewRand(seed)
		})
		var out []time.Duration
		for trip := 0; trip < 5; trip++ {
			for i := 0; i < 3; i++ {
				b.Allow()
				b.OnFailure()
			}
			out = append(out, b.openUntil-clk.Now())
			clk.Advance(b.openUntil - clk.Now())
			// Probe fails to allow an immediate re-trip; the re-trip draws
			// the next jitter value.
			b.Allow()
		}
		return out
	}
	a, b := windows(7), windows(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("window %d differs across identical seeds: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 10*time.Millisecond || a[i] > 15*time.Millisecond {
			t.Fatalf("window %d = %v outside [OpenFor, 1.5*OpenFor]", i, a[i])
		}
	}
	c := windows(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

func TestBreakerConfigValidation(t *testing.T) {
	if _, err := NewBreaker(BreakerConfig{}); err == nil {
		t.Fatal("breaker without a clock accepted")
	}
	clk := &fakeClock{}
	for _, cfg := range []BreakerConfig{
		{Now: clk.Now, FailureThreshold: -1},
		{Now: clk.Now, OpenFor: -time.Second},
		{Now: clk.Now, ProbeJitterFrac: -1},
		{Now: clk.Now, HalfOpenSuccesses: -2},
	} {
		if _, err := NewBreaker(cfg); err == nil {
			t.Fatalf("invalid config %+v accepted", cfg)
		}
	}
}
