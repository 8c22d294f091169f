package core

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/faults"
	"repro/internal/ina226"
	"repro/internal/obs"
	"repro/internal/sysfs"
	"repro/internal/trace"
)

// newSampler returns a sampler on a ZCU102's FPGA current channel at
// the sensor's hwmon update interval (cfg.UpdateInterval, or the
// boards' 35 ms default), after 10 ms of warm-up. A board built with
// cfg.Faults hardens the sampler.
func newSampler(t *testing.T, cfg board.Config) (*Sampler, *board.SoC) {
	t.Helper()
	cfg.Seed = 1
	b, err := board.NewZCU102(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.Run(10 * time.Millisecond)
	atk, err := NewAttacker(b.Sysfs(), sysfs.Nobody)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := b.Sensor(board.SensorFPGA)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampler(b, atk, Channel{Label: board.SensorFPGA, Kind: Current}, dev.UpdateInterval())
	if err != nil {
		t.Fatal(err)
	}
	return s, b
}

// armed is a fault profile that arms the board's injector, and so
// hardens its samplers, without firing faults, so tests can script the
// failures themselves.
func armed() *faults.Profile {
	return &faults.Profile{Name: "test-armed", SysfsErrorRate: 1e-12}
}

// newHardenedSampler is newSampler on an armed board.
func newHardenedSampler(t *testing.T) (*Sampler, *board.SoC) {
	t.Helper()
	return newSampler(t, board.Config{Faults: armed()})
}

func TestSamplerRetryOutcomes(t *testing.T) {
	errPerm := errors.New("permission denied")
	tests := []struct {
		name string
		// interval is the hwmon update interval; zero is the default.
		interval time.Duration
		// probe is scripted per attempt; called with the 1-based attempt
		// number.
		probe    func(attempt int) (float64, error)
		wantVal  float64
		wantErr  error // nil: expect success
		lost     bool  // expect (NaN, ErrSampleLost)
		attempts int   // probe calls expected for a lost sample
	}{
		{
			name:    "clean read needs one attempt",
			probe:   func(int) (float64, error) { return 1.5, nil },
			wantVal: 1.5,
		},
		{
			// Two backoffs, 1 ms and at most 3 ms, fit the one-interval
			// deadline.
			name: "transient errors recover within budget",
			probe: func(attempt int) (float64, error) {
				if attempt < 3 {
					return 0, trace.ErrAgain
				}
				return 2.5, nil
			},
			wantVal: 2.5,
		},
		{
			name:     "transient exhausted becomes a lost sample",
			probe:    func(int) (float64, error) { return 0, trace.ErrIO },
			lost:     true,
			attempts: 4,
		},
		{
			name:    "non-transient error is fatal immediately",
			probe:   func(int) (float64, error) { return 0, errPerm },
			wantErr: errPerm,
		},
		{
			// At the sensor's fastest update interval the 2 ms deadline
			// fits the first 1 ms backoff but not the jittered second.
			name:     "deadline bounds the retry budget before MaxAttempts",
			interval: ina226.MinUpdateInterval,
			probe:    func(int) (float64, error) { return 0, trace.ErrAgain },
			lost:     true,
			attempts: 2,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s, _ := newSampler(t, board.Config{Faults: armed(), UpdateInterval: tt.interval})
			attempt := 0
			s.probe = func() (float64, error) {
				attempt++
				return tt.probe(attempt)
			}
			v, err := s.Read(context.Background())
			switch {
			case tt.lost:
				if !errors.Is(err, ErrSampleLost) || !math.IsNaN(v) {
					t.Fatalf("got (%v, %v), want (NaN, ErrSampleLost)", v, err)
				}
				if attempt != tt.attempts {
					t.Errorf("lost sample probed %d times, want %d", attempt, tt.attempts)
				}
			case tt.wantErr != nil:
				if !errors.Is(err, tt.wantErr) {
					t.Fatalf("err = %v, want %v", err, tt.wantErr)
				}
				if attempt != 1 {
					t.Errorf("fatal error retried %d times", attempt-1)
				}
			default:
				if err != nil {
					t.Fatal(err)
				}
				if v != tt.wantVal {
					t.Fatalf("value = %v, want %v", v, tt.wantVal)
				}
			}
		})
	}
}

func TestSamplerDeadlineCountsAttempts(t *testing.T) {
	// At a 2 ms update interval exactly one backoff fits the deadline:
	// the first, 1 ms, passes; the second, drawn above 1 ms, would land
	// past the budget, so the sample is lost after two probes.
	s, b := newSampler(t, board.Config{Faults: armed(), UpdateInterval: ina226.MinUpdateInterval})
	attempts := 0
	s.probe = func() (float64, error) { attempts++; return 0, trace.ErrAgain }
	start, backoff := b.Engine().Now(), cBackoffNs.Value()
	if _, err := s.Read(context.Background()); !errors.Is(err, ErrSampleLost) {
		t.Fatalf("err = %v, want ErrSampleLost", err)
	}
	if attempts != 2 {
		t.Errorf("probed %d times, want 2 (one backoff inside the 2 ms deadline)", attempts)
	}
	if got := b.Engine().Now() - start; got != time.Millisecond {
		t.Errorf("sample backed off %v of sim time, want 1ms", got)
	}
	if got := cBackoffNs.Value() - backoff; got != int64(time.Millisecond) {
		t.Errorf("core.sampler.backoff_ns moved by %d, want 1ms", got)
	}
}

func TestSamplerBackoffAdvancesSimTime(t *testing.T) {
	s, b := newHardenedSampler(t)
	attempt := 0
	s.probe = func() (float64, error) {
		attempt++
		if attempt < 3 {
			return 0, trace.ErrAgain
		}
		return 1, nil
	}
	start, backoff := b.Engine().Now(), cBackoffNs.Value()
	if _, err := s.Read(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Two retries back off 1 ms, then a jittered delay in [1 ms, 3 ms),
	// in simulated time, which the board runs in whole ticks.
	spent := time.Duration(cBackoffNs.Value() - backoff)
	if spent < 2*time.Millisecond || spent >= 4*time.Millisecond {
		t.Errorf("core.sampler.backoff_ns moved by %v, want [2ms, 4ms)", spent)
	}
	if got := b.Engine().Now() - start; got < spent || got >= spent+2*board.Step {
		t.Errorf("backoff of %v advanced the sim clock by %v", spent, got)
	}
}

func TestSamplerContextCancelDuringBackoff(t *testing.T) {
	s, _ := newHardenedSampler(t)
	ctx, cancel := context.WithCancel(context.Background())
	s.probe = func() (float64, error) {
		cancel() // cancelled while the loop is mid-retry
		return 0, trace.ErrAgain
	}
	if _, err := s.Read(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSamplerReresolvesAfterHotplug(t *testing.T) {
	// A probe holding a pre-renumber path fails with ErrNotExist; the
	// sampler must re-discover through the attacker and succeed on the
	// next attempt with the fresh probe.
	s, _ := newHardenedSampler(t)
	stale := true
	s.probe = func() (float64, error) {
		stale = false
		return 0, fs.ErrNotExist
	}
	reresolves := obs.C("core.sampler.reresolves").Value()
	v, err := s.Read(context.Background())
	if err != nil {
		t.Fatalf("read after re-resolve: %v", err)
	}
	if math.IsNaN(v) {
		t.Errorf("re-resolved read returned NaN")
	}
	if stale {
		t.Error("stale probe was never consulted")
	}
	if d := obs.C("core.sampler.reresolves").Value() - reresolves; d != 1 {
		t.Errorf("core.sampler.reresolves moved by %d, want 1", d)
	}
}

func TestSamplerDropoutBurst(t *testing.T) {
	s, b := newHardenedSampler(t)
	s.faults = &scriptedFaults{dropouts: []int{2}}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		v, err := s.Sample(ctx)
		if !errors.Is(err, ErrSampleLost) || !math.IsNaN(v) {
			t.Fatalf("burst sample %d: got (%v, %v), want (NaN, ErrSampleLost)", i, v, err)
		}
	}
	if v, err := s.Sample(ctx); err != nil || math.IsNaN(v) {
		t.Fatalf("post-burst sample: got (%v, %v), want a live read", v, err)
	}
	// Each Sample still advances exactly one interval.
	if now, want := b.Engine().Now(), 10*time.Millisecond+3*s.interval; now != want {
		t.Errorf("sim clock at %v after 3 samples, want %v", now, want)
	}
}

// scriptedFaults feeds a fixed dropout/jitter schedule to a sampler.
type scriptedFaults struct {
	dropouts []int
	jitters  []time.Duration
}

func (f *scriptedFaults) DropoutLen() int {
	if len(f.dropouts) == 0 {
		return 0
	}
	n := f.dropouts[0]
	f.dropouts = f.dropouts[1:]
	return n
}

func (f *scriptedFaults) JitterDelay(time.Duration) time.Duration {
	if len(f.jitters) == 0 {
		return 0
	}
	d := f.jitters[0]
	f.jitters = f.jitters[1:]
	return d
}
