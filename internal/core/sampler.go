package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"time"

	"repro/internal/board"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/olog"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Sampler metrics: every resilient sampling loop (the level sweeps and
// the per-channel recorders) reports through these, so an experiment's
// obs snapshot shows exactly how much abuse the sampling layer absorbed.
var (
	cSamples    = obs.C("core.sampler.samples")
	cRetries    = obs.C("core.sampler.retries")
	cGaps       = obs.C("core.sampler.gaps")
	cReresolves = obs.C("core.sampler.reresolves")
	cBackoffNs  = obs.C("core.sampler.backoff_ns")

	samplerLog = olog.L("core.sampler")
)

// ErrSampleLost marks a sample the resilient sampling layer gave up on
// (retries exhausted, per-sample deadline blown, or a dropout burst).
// Callers treat it as a gap, not a failure: skip the sample and keep
// sweeping.
var ErrSampleLost = errors.New("core: sample lost")

// ErrChannelDead is the sampler's sticky give-up error, re-exported
// from internal/trace: raised when a channel loses more consecutive
// samples than the policy's MaxConsecutiveGaps tolerates. Unlike
// ErrSampleLost it is fatal to the sweep — the supervised job engine
// turns it into a shard quarantine instead of letting the experiment
// grind through a dead sensor forever.
var ErrChannelDead = trace.ErrChannelDead

// RetryPolicy is re-exported from internal/trace: one policy type
// configures both the recorder-based captures and the loop-based
// samplers.
type RetryPolicy = trace.RetryPolicy

// DefaultRetryPolicy returns the sampling layer's standard policy:
// injected EAGAIN/EIO classify as transient, everything else is fatal.
// Interval supplies the per-sample deadline.
func DefaultRetryPolicy(interval time.Duration) RetryPolicy {
	return RetryPolicy{Transient: faults.IsTransient}.WithDefaults(interval)
}

// Sampler is the resilient sample-per-call counterpart of the trace
// recorder, used by the level-sweep experiments that interleave victim
// control with measurement. Each Sample advances the board by one
// sampling interval (plus any injected scheduler jitter) and reads the
// channel with retry, sim-time backoff, hotplug re-resolution, and a
// per-sample deadline. Without an enabled fault profile it degenerates
// to exactly the legacy "run one interval, read once" loop.
type Sampler struct {
	b        *board.SoC
	attacker *Attacker
	ch       Channel
	interval time.Duration
	probe    func() (float64, error)
	policy   RetryPolicy
	faults   trace.SampleFaults
	// breaker guards the probe path when a fault profile is active: a
	// run of lost samples trips it, and while open every Sample sheds
	// instantly (a gap without burning the retry/backoff budget) until
	// the sim-time probe window lets one read test the sensor again.
	// Nil without fault injection, keeping the no-fault path
	// byte-identical to the legacy loop.
	breaker *resilience.Breaker

	dropoutLeft int
	consecGaps  int
	dead        bool
}

// NewSampler resolves the channel through unprivileged discovery and
// returns a sampler on the board's engine. The board's fault injector,
// when present, supplies the scheduler fault stream keyed by the
// channel.
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
		policy:   DefaultRetryPolicy(interval),
	}
	if inj := b.FaultInjector(); inj != nil {
		s.faults = inj.SamplerFaults(fmt.Sprintf("sampler/%s/%s", ch.Label, ch.Kind))
		// Decorrelated retry jitter from a named stream: deterministic per
		// seed, but concurrent samplers stop retrying in lockstep.
		s.policy.Rand = b.Engine().Stream(fmt.Sprintf("backoff/%s/%s", ch.Label, ch.Kind))
		// The breaker's clock is simulated time and its probe jitter is a
		// named engine stream, so its trips and probe windows are a pure
		// function of the shard seed — chaos runs stay byte-identical
		// across worker counts and across checkpoint/resume.
		eng := b.Engine()
		breaker, err := resilience.NewBreaker(resilience.BreakerConfig{
			Name:            fmt.Sprintf("sampler/%s/%s", ch.Label, ch.Kind),
			OpenFor:         32 * interval,
			ProbeJitterFrac: 0.25,
			Now:             eng.Now,
			Rand:            eng.Stream(fmt.Sprintf("breaker/%s/%s", ch.Label, ch.Kind)),
		})
		if err != nil {
			return nil, err
		}
		s.breaker = breaker
	}
	return s, nil
}

// Breaker exposes the sampler's circuit breaker (nil without fault
// injection), for tests.
func (s *Sampler) Breaker() *resilience.Breaker { return s.breaker }

// SetPolicy overrides the retry policy (normalized with WithDefaults).
// A policy without its own Rand keeps the sampler's wired backoff
// jitter stream.
func (s *Sampler) SetPolicy(p RetryPolicy) {
	if p.Rand == nil {
		p.Rand = s.policy.Rand
	}
	s.policy = p.WithDefaults(s.interval)
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
		s.gap(ctx, "dropout")
		if s.dead {
			return 0, s.deadErr()
		}
		return math.NaN(), ErrSampleLost
	}
	return s.Read(ctx)
}

// deadErr wraps the sticky ErrChannelDead with the channel identity.
func (s *Sampler) deadErr() error {
	return fmt.Errorf("core: %s/%s after %d consecutive losses: %w",
		s.ch.Label, s.ch.Kind, s.consecGaps, ErrChannelDead)
}

// gap records one lost sample and advances the consecutive-gap run
// MaxConsecutiveGaps bounds.
func (s *Sampler) gap(ctx context.Context, cause string) {
	cGaps.Inc()
	s.consecGaps++
	samplerLog.DebugContext(ctx, "sample lost",
		"channel", s.ch.Label, "kind", string(s.ch.Kind),
		"cause", cause, "consecutive", s.consecGaps)
	// Mirror the recorder's sticky limit: past MaxConsecutiveGaps the
	// channel is declared dead and every further call fails fast with
	// ErrChannelDead — an explicit, supervisable failure instead of a
	// silent wedge grinding through a sensor that stopped answering.
	if s.policy.MaxConsecutiveGaps > 0 && s.consecGaps > s.policy.MaxConsecutiveGaps {
		s.dead = true
		samplerLog.WarnContext(ctx, "channel dead",
			"channel", s.ch.Label, "kind", string(s.ch.Kind),
			"consecutive", s.consecGaps, "limit", s.policy.MaxConsecutiveGaps)
	}
}

// good ends the consecutive-gap run on a successful read.
func (s *Sampler) good() {
	cSamples.Inc()
	s.consecGaps = 0
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
	if s.breaker != nil && !s.breaker.Allow() {
		s.gap(ctx, "breaker open")
		if s.dead {
			return 0, s.deadErr()
		}
		return math.NaN(), ErrSampleLost
	}
	v, err := s.readRetry(ctx)
	if s.breaker != nil {
		switch {
		case err == nil:
			s.breaker.OnSuccess()
		case errors.Is(err, ErrSampleLost):
			s.breaker.OnFailure()
		}
	}
	if s.dead {
		return 0, s.deadErr()
	}
	return v, err
}

// readRetry is the raw retry loop behind Read: probe, classify,
// re-resolve after hotplug, back off in simulated time, give up at the
// policy's attempt or deadline budget.
func (s *Sampler) readRetry(ctx context.Context) (float64, error) {
	backoff := s.policy.BaseBackoff
	var spent time.Duration
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		v, err := s.probe()
		if err == nil {
			s.good()
			return v, nil
		}
		transient := s.policy.Transient != nil && s.policy.Transient(err)
		if errors.Is(err, fs.ErrNotExist) {
			// Hotplug renumber moved the attribute: re-discover. A failed
			// re-resolution is itself transient — the next attempt tries
			// again.
			if probe, rerr := s.attacker.Probe(s.ch); rerr == nil {
				s.probe = probe
				cReresolves.Inc()
				samplerLog.DebugContext(ctx, "channel re-resolved after hotplug",
					"channel", s.ch.Label, "kind", string(s.ch.Kind))
			}
			transient = true
		}
		if !transient {
			return 0, err
		}
		cRetries.Inc()
		if attempt >= s.policy.MaxAttempts || spent+backoff > s.policy.SampleDeadline {
			s.gap(ctx, fmt.Sprintf("retries exhausted after %d attempts: %v", attempt, err))
			return math.NaN(), ErrSampleLost
		}
		// Back off in simulated time: the board keeps running while the
		// sampling loop sleeps.
		s.b.Run(backoff)
		cBackoffNs.Add(backoff.Nanoseconds())
		spent += backoff
		backoff = s.policy.NextBackoff(backoff)
	}
}

// recorderHooks wires a capture recorder into the sampling metrics,
// the attacker's re-resolution path, and the decorrelated backoff
// jitter stream; used by captureOne and covertOnce when a fault
// profile is active.
func recorderHooks(attacker *Attacker, ch Channel, interval time.Duration, jitter *sim.Rand) *trace.RetryPolicy {
	p := DefaultRetryPolicy(interval)
	p.Rand = jitter
	p.Resolve = func() (func() (float64, error), error) {
		probe, err := attacker.Probe(ch)
		if err == nil {
			cReresolves.Inc()
		}
		return probe, err
	}
	p.OnRetry = cRetries.Inc
	p.OnGap = cGaps.Inc
	return &p
}
