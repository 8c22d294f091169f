package core

// Circuit breaker and dead-channel behaviour of the hardened sampler,
// plus the hotplug renumber-storm recovery property: a sampler under a
// hostile sensor either keeps delivering (with explicit gap and
// re-resolution accounting) or declares the channel dead — it never
// silently wedges.

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/board"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestSamplerWithoutFaultsHasNoBreaker pins the bare sampler: without a
// fault injector it has no hardened read path at all, and a read error,
// even a transient one, comes back as is after a single probe.
func TestSamplerWithoutFaultsHasNoBreaker(t *testing.T) {
	s, _ := newSampler(t, board.Config{})
	if s.breaker != nil || s.retry != nil || s.faults != nil {
		t.Fatal("no-fault sampler grew a hardened read path; the clean path must stay byte-identical")
	}
	probes := 0
	s.probe = func() (float64, error) { probes++; return 0, trace.ErrAgain }
	if _, err := s.Read(context.Background()); !errors.Is(err, trace.ErrAgain) {
		t.Fatalf("bare read err = %v, want ErrAgain", err)
	}
	if probes != 1 {
		t.Errorf("bare read probed %d times, want 1", probes)
	}
}

func TestSamplerBreakerShedsAfterFailureRun(t *testing.T) {
	s, _ := newHardenedSampler(t)
	if s.breaker == nil {
		t.Fatal("fault-armed sampler has no breaker")
	}
	probes := 0
	s.probe = func() (float64, error) { probes++; return 0, trace.ErrIO }

	opened := obs.C("resilience.breaker.open_total").Value()
	shorted := obs.C("resilience.breaker.short_circuit_total").Value()
	ctx := context.Background()
	// Each lost sample is one breaker failure; the 16th trips it.
	for i := 0; i < breakerTrip; i++ {
		if _, err := s.Read(ctx); !errors.Is(err, ErrSampleLost) {
			t.Fatalf("read %d: %v, want ErrSampleLost", i, err)
		}
	}
	if got := s.breaker.state; got != breakerOpen {
		t.Fatalf("breaker after %d losses = %v, want open", breakerTrip, got)
	}
	if d := obs.C("resilience.breaker.open_total").Value() - opened; d != 1 {
		t.Errorf("resilience.breaker.open_total moved by %d, want 1", d)
	}

	// While open, reads shed instantly: still gaps, but no probe (and no
	// retry/backoff burn).
	probesWhenOpened := probes
	for i := 0; i < 5; i++ {
		if v, err := s.Read(ctx); !errors.Is(err, ErrSampleLost) || !math.IsNaN(v) {
			t.Fatalf("shed read %d: (%v, %v), want (NaN, ErrSampleLost)", i, v, err)
		}
	}
	if probes != probesWhenOpened {
		t.Errorf("open breaker still probed the sensor %d times", probes-probesWhenOpened)
	}
	if d := obs.C("resilience.breaker.short_circuit_total").Value() - shorted; d != 5 {
		t.Errorf("resilience.breaker.short_circuit_total moved by %d, want 5", d)
	}
}

func TestSamplerBreakerRecovers(t *testing.T) {
	s, b := newHardenedSampler(t)
	healthy := false
	real := s.probe
	s.probe = func() (float64, error) {
		if healthy {
			return real()
		}
		return 0, trace.ErrIO
	}
	ctx := context.Background()
	for i := 0; i < breakerTrip; i++ {
		if _, err := s.Read(ctx); !errors.Is(err, ErrSampleLost) {
			t.Fatal(err)
		}
	}
	if s.breaker.state != breakerOpen {
		t.Fatal("breaker did not open")
	}

	// Sensor heals; advance sim time past the jittered probe window (32
	// intervals, plus jitter of at most 25%).
	healthy = true
	closes := obs.C("resilience.breaker.close_total").Value()
	b.Run(40 * s.interval)
	for i := 0; i < breakerClose; i++ {
		if v, err := s.Read(ctx); err != nil || math.IsNaN(v) {
			t.Fatalf("probe read %d: (%v, %v), want a live read", i, v, err)
		}
	}
	if got := s.breaker.state; got != breakerClosed {
		t.Errorf("breaker after successful probes = %v, want closed", got)
	}
	if d := obs.C("resilience.breaker.close_total").Value() - closes; d != 1 {
		t.Errorf("resilience.breaker.close_total moved by %d, want 1", d)
	}
}

func TestSamplerDeclaresChannelDead(t *testing.T) {
	s, _ := newHardenedSampler(t)
	probes := 0
	s.probe = func() (float64, error) { probes++; return 0, trace.ErrIO }

	ctx := context.Background()
	var err error
	i := 0
	// The hardened read path tolerates 64 consecutive losses (the
	// breaker's sheds among them); the 65th turns sticky.
	for ; i < 100; i++ {
		if _, err = s.Sample(ctx); errors.Is(err, ErrChannelDead) {
			break
		}
		if !errors.Is(err, ErrSampleLost) {
			t.Fatalf("sample %d: %v", i, err)
		}
	}
	if !errors.Is(err, ErrChannelDead) {
		t.Fatal("channel never declared dead")
	}
	if i != 64 {
		t.Errorf("channel declared dead on sample %d, want the 65th", i+1)
	}
	// Dead is sticky and probe-free: both entry points fail fast.
	probesWhenDead := probes
	if _, err := s.Sample(ctx); !errors.Is(err, ErrChannelDead) {
		t.Errorf("Sample on dead channel = %v", err)
	}
	if _, err := s.Read(ctx); !errors.Is(err, ErrChannelDead) {
		t.Errorf("Read on dead channel = %v", err)
	}
	if probes != probesWhenDead {
		t.Errorf("dead channel still probed %d times", probes-probesWhenDead)
	}
}

func TestSamplerSurvivesRenumberStorm(t *testing.T) {
	// A hotplug storm renumbers the hwmon directory ~every 5 simulated
	// milliseconds, several times per 35 ms sampling interval: the
	// resolved path keeps dying under the probe. The recovery contract:
	// the loop always terminates, re-resolution is exercised, and the
	// sampler either keeps delivering samples or reports an explicit
	// dead channel. No silent wedge, no unbounded error.
	storm := faults.Profile{
		Name:           "renumber-storm",
		HotplugRate:    200, // expected renumbers per simulated second
		SysfsErrorRate: 0.05,
	}
	s, _ := newSampler(t, board.Config{Faults: &storm})

	reresolvesBefore := obs.C("core.sampler.reresolves").Value()
	ctx := context.Background()
	good, gaps := 0, 0
	var dead bool
	for i := 0; i < 500; i++ {
		v, err := s.Sample(ctx)
		switch {
		case err == nil:
			if math.IsNaN(v) {
				t.Fatalf("sample %d: clean read returned NaN", i)
			}
			good++
		case errors.Is(err, ErrSampleLost):
			gaps++
		case errors.Is(err, ErrChannelDead):
			dead = true
		default:
			t.Fatalf("sample %d: unexpected hard error %v", i, err)
		}
		if dead {
			break
		}
	}
	if !dead && good == 0 {
		t.Error("storm produced no samples and no dead-channel verdict: silent wedge")
	}
	if got := obs.C("core.sampler.reresolves").Value(); got == reresolvesBefore {
		t.Error("a 200/s renumber storm never exercised re-resolution")
	}
	t.Logf("storm outcome: %d good, %d gaps, dead=%v, reresolves=%d",
		good, gaps, dead, obs.C("core.sampler.reresolves").Value()-reresolvesBefore)
}
