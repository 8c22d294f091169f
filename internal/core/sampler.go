package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/board"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Sampler metrics: every sampling loop (the level sweeps and the
// per-channel recorders) reports through these, so an experiment's obs
// snapshot shows exactly how much abuse the sampling layer absorbed.
// The retry, gap and re-resolution counts are kept by the hardened read
// path in internal/trace, under these same core.sampler.* names.
var (
	cSamples   = obs.C("core.sampler.samples")
	cBackoffNs = obs.C("core.sampler.backoff_ns")
)

// ErrSampleLost marks a sample the hardened read path gave up on
// (retries exhausted, per-sample deadline blown, a dropout burst, or a
// read shed by the open circuit breaker). Callers treat it as a gap,
// not a failure: skip the sample and keep sweeping.
var ErrSampleLost = errors.New("core: sample lost")

// ErrChannelDead is the sampler's sticky give-up error, re-exported
// from internal/trace: raised when a channel loses more consecutive
// samples than the hardened read path tolerates. Unlike ErrSampleLost
// it is fatal to the sweep — the supervised job engine turns it into a
// shard quarantine instead of letting the experiment grind through a
// dead sensor forever.
var ErrChannelDead = trace.ErrChannelDead

// Sampler is the sample-per-call counterpart of the trace recorder,
// used by the level-sweep experiments that interleave victim control
// with measurement. Each Sample advances the board by one sampling
// interval and reads the channel.
//
// On a board without a fault injector the sampler is bare: "run one
// interval, read once", and any read error is returned as is. On a
// board with one it is hardened, reading under internal/trace's fixed
// retry policy: injected scheduler jitter and dropouts, retries with
// sim-time backoff, hotplug re-resolution, a per-sample deadline, and a
// circuit breaker.
type Sampler struct {
	b        *board.SoC
	attacker *Attacker
	ch       Channel
	interval time.Duration
	probe    func() (float64, error)

	// The hardened read path: retry and breaker are nil on a bare
	// sampler, faults also when the profile injects no scheduler faults.
	// A run of lost samples trips the breaker, and while it is open
	// every read sheds instantly (a gap without burning the
	// retry/backoff budget) until the sim-time probe window lets one
	// read test the sensor again.
	retry   *trace.Retry
	faults  trace.SampleFaults
	breaker *breaker

	dropoutLeft int
	dead        bool
}

// NewSampler resolves the channel through unprivileged discovery and
// returns a sampler on the board's engine. The board's fault injector,
// when present, hardens it: the injector supplies the scheduler fault
// stream keyed by the channel, and named engine streams supply the
// backoff and breaker jitter.
func NewSampler(b *board.SoC, attacker *Attacker, ch Channel, interval time.Duration) (*Sampler, error) {
	if b == nil || attacker == nil {
		return nil, errors.New("core: sampler needs a board and an attacker")
	}
	if interval <= 0 {
		return nil, errors.New("core: non-positive sampling interval")
	}
	probe, err := attacker.Probe(ch)
	if err != nil {
		return nil, err
	}
	s := &Sampler{
		b:        b,
		attacker: attacker,
		ch:       ch,
		interval: interval,
		probe:    probe,
	}
	if inj := b.FaultInjector(); inj != nil {
		eng := b.Engine()
		s.faults = inj.SamplerFaults(fmt.Sprintf("sampler/%s/%s", ch.Label, ch.Kind))
		// Decorrelated retry jitter from a named stream: deterministic per
		// seed, but concurrent samplers stop retrying in lockstep.
		s.retry = trace.NewRetry(interval, eng.Stream(fmt.Sprintf("backoff/%s/%s", ch.Label, ch.Kind)),
			attacker.resolver(ch))
		// The breaker's clock is simulated time and its probe jitter is a
		// named engine stream, so its trips and probe windows are a pure
		// function of the shard seed — chaos runs stay byte-identical
		// across worker counts and across checkpoint/resume.
		s.breaker = newBreaker(eng.Now, breakerOpenIntervals*interval,
			eng.Stream(fmt.Sprintf("breaker/%s/%s", ch.Label, ch.Kind)))
	}
	return s, nil
}

// Sample advances the board one sampling interval and reads the
// channel. It returns (NaN, ErrSampleLost) for an unrecoverable sample
// and the context error if ctx is cancelled, including mid-backoff.
func (s *Sampler) Sample(ctx context.Context) (float64, error) {
	if s.dead {
		return 0, s.deadErr()
	}
	d := s.interval
	if s.faults != nil && s.dropoutLeft == 0 {
		if k := s.faults.DropoutLen(); k > 0 {
			s.dropoutLeft = k
		}
		d += s.faults.JitterDelay(s.interval)
	}
	s.b.Run(d)
	if s.dropoutLeft > 0 {
		// The sampling task was descheduled for this interval: the time
		// passed, but no read happened. Not a sensor failure, so the
		// breaker doesn't hear about it.
		s.dropoutLeft--
		return s.lost()
	}
	return s.Read(ctx)
}

// deadErr wraps the sticky ErrChannelDead with the channel identity.
func (s *Sampler) deadErr() error {
	return fmt.Errorf("core: %s/%s after %d consecutive losses: %w",
		s.ch.Label, s.ch.Kind, s.retry.Losses(), ErrChannelDead)
}

// gap records one lost sample. Past the hardened read path's
// consecutive-gap limit the channel is declared dead and every further
// call fails fast with ErrChannelDead — an explicit, supervisable
// failure instead of a silent wedge grinding through a sensor that
// stopped answering.
func (s *Sampler) gap() {
	if s.retry.Lost() {
		s.dead = true
	}
}

// lost records one lost sample and returns the caller's result for it.
func (s *Sampler) lost() (float64, error) {
	s.gap()
	if s.dead {
		return 0, s.deadErr()
	}
	return math.NaN(), ErrSampleLost
}

// Read reads the channel now, with retry but without advancing the
// nominal sampling interval first (backoff still advances sim time).
// Use it for secondary channels piggybacking on a primary sampler's
// cadence. When the circuit breaker is open the read sheds instantly —
// a gap without the retry/backoff budget — until the probe window
// re-tests the sensor.
func (s *Sampler) Read(ctx context.Context) (float64, error) {
	if s.dead {
		return 0, s.deadErr()
	}
	if s.retry == nil {
		return s.readBare(ctx)
	}
	if !s.breaker.Allow() {
		return s.lost()
	}
	v, err := s.readRetry(ctx)
	switch {
	case err == nil:
		s.breaker.OnSuccess()
	case errors.Is(err, ErrSampleLost):
		s.breaker.OnFailure()
	}
	if s.dead {
		return 0, s.deadErr()
	}
	return v, err
}

// readBare is a bare sampler's read: one probe call.
func (s *Sampler) readBare(ctx context.Context) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	v, err := s.probe()
	if err != nil {
		return 0, err
	}
	cSamples.Inc()
	return v, nil
}

// readRetry is the retry loop behind a hardened Read: probe, classify,
// re-resolve after hotplug, back off in simulated time, give up at the
// attempt or deadline budget.
func (s *Sampler) readRetry(ctx context.Context) (float64, error) {
	s.retry.Begin()
	var spent time.Duration
	for {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		v, err := s.probe()
		if err == nil {
			cSamples.Inc()
			s.retry.Kept()
			return v, nil
		}
		if !s.retry.Transient(err, &s.probe) {
			return 0, err
		}
		backoff, ok := s.retry.Backoff(spent)
		if !ok {
			// Read turns a dead channel into ErrChannelDead after the
			// breaker has heard of this loss.
			s.gap()
			return math.NaN(), ErrSampleLost
		}
		// Back off in simulated time: the board keeps running while the
		// sampling loop sleeps.
		s.b.Run(backoff)
		cBackoffNs.Add(backoff.Nanoseconds())
		spent += backoff
	}
}

// The circuit breaker's fixed policy: it trips after breakerTrip
// consecutive lost reads, closes after breakerClose successful
// half-open probes, and stays open for breakerOpenIntervals sampling
// intervals plus up to breakerJitter of that again.
const (
	breakerTrip          = 16
	breakerClose         = 2
	breakerOpenIntervals = 32
	breakerJitter        = 0.25
)

// Breaker metrics. Counters aggregate across every breaker in the
// process (they are per-shard deterministic, so their totals stay
// byte-identical across worker counts and across checkpoint/resume).
//
// Registration is lazy — obs.C on the event path — so a process that
// never trips (every faultless run, such as the benchtab experiments,
// whose canonical run manifests are pinned as goldens down to the exact
// counter set) sees no new counters.
func cBreakerOpen() *obs.Counter   { return obs.C("resilience.breaker.open_total") }
func cBreakerShort() *obs.Counter  { return obs.C("resilience.breaker.short_circuit_total") }
func cBreakerProbes() *obs.Counter { return obs.C("resilience.breaker.probes_total") }
func cBreakerCloses() *obs.Counter { return obs.C("resilience.breaker.close_total") }

// breakerState is a circuit breaker state.
type breakerState int

const (
	// breakerClosed: reads flow; consecutive failures are counted.
	breakerClosed breakerState = iota
	// breakerOpen: reads short-circuit until the open window expires.
	breakerOpen
	// breakerHalfOpen: one probe read at a time decides between
	// closing and re-opening.
	breakerHalfOpen
)

// breaker is the closed/open/half-open circuit breaker that guards a
// hardened Sampler's read path during long faulted captures: after
// repeated lost reads it sheds reads instantly instead of burning the
// retry budget on a dead channel, then probes for recovery.
//
// Its clock is the simulation's, and its probe-scheduling jitter, which
// keeps many half-open breakers from probing in lock step, draws from a
// named engine stream, so it is fully deterministic under replay. It is
// goroutine-safe, though each sampler drives its breaker from a single
// goroutine.
type breaker struct {
	now     func() time.Duration
	openFor time.Duration
	jitter  *sim.Rand

	mu        sync.Mutex
	state     breakerState
	failures  int           // consecutive failures while closed
	successes int           // consecutive probe successes while half-open
	probing   bool          // a half-open probe is in flight
	openUntil time.Duration // when the open window expires
}

// newBreaker returns a closed breaker on the clock now, open for
// openFor plus jitter after each trip.
func newBreaker(now func() time.Duration, openFor time.Duration, jitter *sim.Rand) *breaker {
	return &breaker{now: now, openFor: openFor, jitter: jitter}
}

// Allow reports whether a read may proceed now. An open breaker whose
// window has expired turns half-open and admits the read as a probe.
// Callers report the read's outcome with OnSuccess/OnFailure; a
// short-circuited read (Allow false) must not report.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now() < b.openUntil {
			cBreakerShort().Inc()
			return false
		}
		b.state = breakerHalfOpen
		b.successes = 0
		b.probing = true
		cBreakerProbes().Inc()
		return true
	default: // breakerHalfOpen: one probe in flight at a time.
		if b.probing {
			cBreakerShort().Inc()
			return false
		}
		b.probing = true
		cBreakerProbes().Inc()
		return true
	}
}

// OnSuccess records a successful read.
func (b *breaker) OnSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		b.failures = 0
	case breakerHalfOpen:
		b.probing = false
		b.successes++
		if b.successes >= breakerClose {
			b.state = breakerClosed
			b.failures = 0
			cBreakerCloses().Inc()
		}
	}
}

// OnFailure records a lost read. While closed it advances the
// consecutive-failure count and trips the breaker at the threshold;
// while half-open it re-opens immediately.
func (b *breaker) OnFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		b.failures++
		if b.failures >= breakerTrip {
			b.trip()
		}
	case breakerHalfOpen:
		b.trip()
	}
}

// trip moves to open and schedules the next probe window; callers hold
// b.mu.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.failures = 0
	b.successes = 0
	b.probing = false
	window := b.openFor + time.Duration(breakerJitter*b.jitter.Float64()*float64(b.openFor))
	b.openUntil = b.now() + window
	cBreakerOpen().Inc()
}
