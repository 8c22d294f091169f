package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/ina226"
	"repro/internal/obs"
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

// testOpenFor is a sampler's open window at the boards' default hwmon
// update interval.
const testOpenFor = breakerOpenIntervals * ina226.DefaultUpdateInterval

func newTestBreaker(clk *fakeClock, seed int64) *breaker {
	return newBreaker(clk.Now, testOpenFor, sim.NewRand(seed))
}

// fail reports n consecutive failed reads.
func (b *breaker) fail(n int) {
	for i := 0; i < n; i++ {
		b.Allow()
		b.OnFailure()
	}
}

func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{}
	b := newTestBreaker(clk, 1)
	opened := obs.C("resilience.breaker.open_total").Value()
	shorted := obs.C("resilience.breaker.short_circuit_total").Value()

	if got := b.state; got != breakerClosed {
		t.Fatalf("initial state = %v, want closed", got)
	}
	// breakerTrip-1 failures stay closed; the next trips.
	for i := 0; i < breakerTrip-1; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected request %d", i)
		}
		b.OnFailure()
	}
	if got := b.state; got != breakerClosed {
		t.Fatalf("state after %d failures = %v, want closed", breakerTrip-1, got)
	}
	b.fail(1)
	if got := b.state; got != breakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", got)
	}
	if d := obs.C("resilience.breaker.open_total").Value() - opened; d != 1 {
		t.Fatalf("trips = %d, want 1", d)
	}
	// Open: short-circuits until the window expires.
	if b.Allow() {
		t.Fatal("open breaker admitted a request inside the window")
	}
	if d := obs.C("resilience.breaker.short_circuit_total").Value() - shorted; d != 1 {
		t.Fatalf("short circuits = %d, want 1", d)
	}
	clk.Advance(testOpenFor + testOpenFor/4 + 1)
	// Window expired: one probe admitted (half-open), a second is not.
	if !b.Allow() {
		t.Fatal("expired breaker rejected the probe")
	}
	if got := b.state; got != breakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", got)
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Probe succeeds, but closing takes breakerClose successes.
	b.OnSuccess()
	if !b.Allow() {
		t.Fatal("breaker rejected the second probe after a success")
	}
	b.OnSuccess()
	if got := b.state; got != breakerClosed {
		t.Fatalf("state after enough probe successes = %v, want closed", got)
	}

	// A failing probe re-opens immediately.
	b.fail(breakerTrip)
	clk.Advance(testOpenFor + testOpenFor/4 + 1)
	b.fail(1)
	if got := b.state; got != breakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if d := obs.C("resilience.breaker.open_total").Value() - opened; d != 3 {
		t.Fatalf("trips = %d, want 3 (initial + re-trip + failed probe)", d)
	}
}

func TestBreakerSuccessResetsFailureRun(t *testing.T) {
	clk := &fakeClock{}
	b := newTestBreaker(clk, 1)
	// A success between two runs one short of the threshold: never
	// breakerTrip consecutive failures.
	b.fail(breakerTrip - 1)
	b.Allow()
	b.OnSuccess()
	b.fail(breakerTrip - 1)
	if got := b.state; got != breakerClosed {
		t.Fatalf("state = %v, want closed (failure run was broken)", got)
	}
}

func TestBreakerProbeJitterDeterministic(t *testing.T) {
	windows := func(seed int64) []time.Duration {
		clk := &fakeClock{}
		b := newTestBreaker(clk, seed)
		var out []time.Duration
		for trip := 0; trip < 5; trip++ {
			b.fail(breakerTrip)
			out = append(out, b.openUntil-clk.Now())
			clk.Advance(b.openUntil - clk.Now())
			// The expired window admits a probe; failing it re-trips
			// with the next jitter draw, so close it to start afresh.
			b.Allow()
			b.OnSuccess()
			b.Allow()
			b.OnSuccess()
		}
		return out
	}
	a, b := windows(7), windows(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("window %d differs across identical seeds: %v vs %v", i, a[i], b[i])
		}
		if a[i] < testOpenFor || a[i] > testOpenFor+testOpenFor/4 {
			t.Fatalf("window %d = %v outside [open window, 1.25 * open window]", i, a[i])
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
