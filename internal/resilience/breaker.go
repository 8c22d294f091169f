// Package resilience holds the circuit breaker that guards core.Sampler's
// sensor read path during long faulted captures: after repeated read
// failures it sheds reads instantly instead of burning the retry budget
// on a dead channel, then probes for recovery.
//
// The breaker is clock-agnostic: it takes a Now func() time.Duration
// instead of reading the wall clock, so on the simulated sensor path it
// runs on the sim clock and is fully deterministic under replay. Its
// probe-scheduling jitter, which keeps many half-open breakers from
// probing in lock step, draws from an injected *sim.Rand, expected to
// be a named stream of the simulation engine (seed ^ FNV-1a(name)),
// keeping chaos runs byte-identical across worker counts.
//
// Breaker transitions are first-class observability events:
// resilience.breaker.open_total, resilience.breaker.short_circuit_total
// and friends land in the obs registry, so a run that survived by
// degrading says so in its manifest instead of silently absorbing the
// damage.
package resilience

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Breaker metrics. Counters aggregate across every breaker in the
// process (they are per-shard deterministic, so their totals stay
// byte-identical across worker counts and across checkpoint/resume);
// the per-breaker state is reported through the State method, not a
// shared gauge, to keep last-writer races out of manifests.
//
// Registration is lazy — obs.C on the event path — so a process that
// never trips (every faultless run, such as the benchtab experiments,
// whose canonical run manifests are pinned as goldens down to the exact
// counter set) sees no new counters.
func cBreakerOpen() *obs.Counter   { return obs.C("resilience.breaker.open_total") }
func cBreakerShort() *obs.Counter  { return obs.C("resilience.breaker.short_circuit_total") }
func cBreakerProbes() *obs.Counter { return obs.C("resilience.breaker.probes_total") }
func cBreakerCloses() *obs.Counter { return obs.C("resilience.breaker.close_total") }

// State is a circuit breaker state.
type State int

const (
	// Closed: requests flow; consecutive failures are counted.
	Closed State = iota
	// Open: requests short-circuit until the open window expires.
	Open
	// HalfOpen: a bounded number of probe requests are let through to
	// decide between closing and re-opening.
	HalfOpen
)

// String returns the conventional lowercase state name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ErrOpen is returned by Breaker.Allow callers' convention (and by Do)
// when the breaker is open and the request was short-circuited.
var ErrOpen = errors.New("resilience: circuit breaker open")

// BreakerConfig parameterizes a Breaker. The zero value of every
// tunable selects a sane default; Now is the only required field.
type BreakerConfig struct {
	// Name labels the breaker in logs and debug output.
	Name string
	// FailureThreshold is the consecutive-failure count that trips the
	// breaker from closed to open. Zero means 16.
	FailureThreshold int
	// OpenFor is how long the breaker stays open before moving to
	// half-open, measured on Now's clock. Zero means 64 ms (32 hwmon
	// update intervals at the ZCU102's 2 ms cadence).
	OpenFor time.Duration
	// ProbeJitterFrac scales the deterministic jitter added to OpenFor
	// on each trip: the open window is OpenFor * (1 + U[0,frac)) with U
	// drawn from Rand. Zero jitter when zero or when Rand is nil.
	ProbeJitterFrac float64
	// HalfOpenSuccesses is the number of consecutive successful probes
	// that closes a half-open breaker. Zero means 2.
	HalfOpenSuccesses int
	// Now supplies the clock; typically engine.Now for simulated
	// components or a monotonic wall offset for servers. Required.
	Now func() time.Duration
	// Rand supplies the probe-scheduling jitter, typically a named sim
	// RNG stream. Nil disables jitter.
	Rand *sim.Rand
}

func (cfg BreakerConfig) withDefaults() (BreakerConfig, error) {
	if cfg.Now == nil {
		return cfg, errors.New("resilience: breaker needs a Now clock")
	}
	if cfg.FailureThreshold == 0 {
		cfg.FailureThreshold = 16
	}
	if cfg.FailureThreshold < 1 {
		return cfg, fmt.Errorf("resilience: non-positive failure threshold %d", cfg.FailureThreshold)
	}
	if cfg.OpenFor == 0 {
		cfg.OpenFor = 64 * time.Millisecond
	}
	if cfg.OpenFor < 0 {
		return cfg, fmt.Errorf("resilience: negative open window %v", cfg.OpenFor)
	}
	if cfg.ProbeJitterFrac < 0 {
		return cfg, fmt.Errorf("resilience: negative probe jitter %v", cfg.ProbeJitterFrac)
	}
	if cfg.HalfOpenSuccesses == 0 {
		cfg.HalfOpenSuccesses = 2
	}
	if cfg.HalfOpenSuccesses < 1 {
		return cfg, fmt.Errorf("resilience: non-positive half-open successes %d", cfg.HalfOpenSuccesses)
	}
	return cfg, nil
}

// Breaker is a closed/open/half-open circuit breaker. It is
// goroutine-safe, though the deterministic sampling paths drive each
// breaker from a single goroutine.
type Breaker struct {
	cfg BreakerConfig

	mu        sync.Mutex
	state     State
	failures  int           // consecutive failures while closed
	successes int           // consecutive probe successes while half-open
	probing   bool          // a half-open probe is in flight
	openUntil time.Duration // when the open window expires
	trips     int64
	shorted   int64
}

// NewBreaker returns a breaker in the closed state.
func NewBreaker(cfg BreakerConfig) (*Breaker, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Breaker{cfg: cfg}, nil
}

// Allow reports whether a request may proceed now. An open breaker
// whose window has expired transitions to half-open and admits the
// request as a probe. Callers must report the request's outcome with
// OnSuccess/OnFailure; a short-circuited request (Allow false) must
// not report.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.cfg.Now() < b.openUntil {
			b.shorted++
			cBreakerShort().Inc()
			return false
		}
		b.state = HalfOpen
		b.successes = 0
		b.probing = true
		cBreakerProbes().Inc()
		return true
	default: // HalfOpen: one probe in flight at a time.
		if b.probing {
			b.shorted++
			cBreakerShort().Inc()
			return false
		}
		b.probing = true
		cBreakerProbes().Inc()
		return true
	}
}

// OnSuccess records a successful request.
func (b *Breaker) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.failures = 0
	case HalfOpen:
		b.probing = false
		b.successes++
		if b.successes >= b.cfg.HalfOpenSuccesses {
			b.state = Closed
			b.failures = 0
			cBreakerCloses().Inc()
		}
	}
}

// OnFailure records a failed request. While closed it advances the
// consecutive-failure count and trips the breaker at the threshold;
// while half-open it re-opens immediately.
func (b *Breaker) OnFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.trip()
		}
	case HalfOpen:
		b.trip()
	}
}

// trip moves to open and schedules the next probe window; callers hold
// b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.failures = 0
	b.successes = 0
	b.probing = false
	window := b.cfg.OpenFor
	if b.cfg.Rand != nil && b.cfg.ProbeJitterFrac > 0 {
		window += time.Duration(b.cfg.ProbeJitterFrac * b.cfg.Rand.Float64() * float64(b.cfg.OpenFor))
	}
	b.openUntil = b.cfg.Now() + window
	b.trips++
	cBreakerOpen().Inc()
}

// Do runs fn under the breaker: short-circuits with ErrOpen when the
// breaker rejects the request, otherwise reports fn's outcome back.
func (b *Breaker) Do(fn func() error) error {
	if !b.Allow() {
		return ErrOpen
	}
	err := fn()
	if err != nil {
		b.OnFailure()
	} else {
		b.OnSuccess()
	}
	return err
}

// State returns the current state without side effects (an expired
// open window still reads as open until the next Allow).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips returns how many times this breaker has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// ShortCircuits returns how many requests this breaker rejected.
func (b *Breaker) ShortCircuits() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shorted
}
