package trace

import (
	"errors"
	"io/fs"
	"testing"
	"time"

	"repro/internal/ina226"
	"repro/internal/sim"
)

// The recorder's hardened read path: probe failures retry with
// jittered backoff in recorded time, unrecoverable samples become NaN
// gaps, and only fatal errors (or a dead channel) stick. Every test
// samples at the boards' default hwmon update interval, the cadence of
// every capture.

const (
	resInterval = ina226.DefaultUpdateInterval
	resTick     = 500 * time.Microsecond // the boards' simulation tick
)

// drive steps the recorder like a board's engine would, from now
// through d more, and returns the new time.
func drive(r *Recorder, now, d time.Duration) time.Duration {
	for end := now + d; now < end; {
		now += resTick
		r.Step(now, resTick)
	}
	return now
}

// newHardened returns a recorder on the hardened read path, with the
// given scheduler faults and a resolver that fails.
func newHardened(t *testing.T, probe func() (float64, error), sf SampleFaults) *Recorder {
	t.Helper()
	r, err := NewRecorder(resInterval, probe)
	if err != nil {
		t.Fatal(err)
	}
	r.Harden(sf, sim.NewRand(1), func() (func() (float64, error), error) {
		return nil, fs.ErrNotExist
	})
	return r
}

func TestRecorderRetriesTransientFailures(t *testing.T) {
	calls := 0
	probe := func() (float64, error) {
		calls++
		if calls == 1 {
			return 0, ErrAgain
		}
		return float64(calls), nil
	}
	r := newHardened(t, probe, nil)
	drive(r, 0, 5*resInterval)
	tr, err := r.Trace()
	if err != nil {
		t.Fatalf("sticky error after recoverable failure: %v", err)
	}
	if tr.Gaps() != 0 {
		t.Errorf("%d gaps recorded, want 0 (the retry should have recovered)", tr.Gaps())
	}
	if len(tr.Samples) != 5 {
		t.Fatalf("recorded %d samples, want 5", len(tr.Samples))
	}
}

func TestRecorderExhaustedRetriesBecomeGap(t *testing.T) {
	fail := true
	calls := 0
	probe := func() (float64, error) {
		calls++
		if fail {
			return 0, ErrIO
		}
		return 1, nil
	}
	r := newHardened(t, probe, nil)
	retries, gaps := ctrRetries.Value(), ctrLost.Value()
	now := drive(r, 0, resInterval+resInterval/2)
	if calls != maxAttempts {
		t.Errorf("failing sample probed %d times, want %d", calls, maxAttempts)
	}
	fail = false
	drive(r, now, 3*resInterval)
	tr, err := r.Trace()
	if err != nil {
		t.Fatalf("sticky error: %v", err)
	}
	if tr.Gaps() != 1 {
		t.Errorf("%d gaps, want 1 for the exhausted sample", tr.Gaps())
	}
	if d := ctrLost.Value() - gaps; d != int64(tr.Gaps()) {
		t.Errorf("core.sampler.gaps moved by %d for %d gaps", d, tr.Gaps())
	}
	if d := ctrRetries.Value() - retries; d != maxAttempts {
		t.Errorf("core.sampler.retries moved by %d, want %d", d, maxAttempts)
	}
	// Recovery: finite samples resumed after the failing stretch.
	if len(tr.Finite()) == 0 {
		t.Error("no finite samples after the probe recovered")
	}
}

func TestRecorderFatalErrorSticksWithPolicy(t *testing.T) {
	fatal := errors.New("permission denied")
	calls := 0
	r := newHardened(t, func() (float64, error) { calls++; return 0, fatal }, nil)
	drive(r, 0, 3*resInterval)
	if _, err := r.Trace(); !errors.Is(err, fatal) {
		t.Fatalf("sticky error = %v, want the fatal probe error", err)
	}
	if calls != 1 {
		t.Errorf("fatal error retried %d times", calls-1)
	}
}

// TestRecorderBareStopsAtFirstError pins the bare recorder, on a board
// without fault injection: it never retries, so even a transient error
// ends the capture at the failing sample.
func TestRecorderBareStopsAtFirstError(t *testing.T) {
	calls := 0
	r, err := NewRecorder(resInterval, func() (float64, error) {
		calls++
		if calls > 2 {
			return 0, ErrAgain
		}
		return 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	drive(r, 0, 10*resInterval)
	tr, err := r.Trace()
	if !errors.Is(err, ErrAgain) {
		t.Fatalf("sticky error = %v, want ErrAgain", err)
	}
	if len(tr.Samples) != 2 || calls != 3 {
		t.Errorf("recorded %d samples over %d calls; a bare recorder must stop at the first error", len(tr.Samples), calls)
	}
}

func TestRecorderResolveRecoversFromHotplug(t *testing.T) {
	r, err := NewRecorder(resInterval, func() (float64, error) { return 0, fs.ErrNotExist })
	if err != nil {
		t.Fatal(err)
	}
	resolves := 0
	r.Harden(nil, sim.NewRand(1), func() (func() (float64, error), error) {
		resolves++
		return func() (float64, error) { return 42, nil }, nil
	})
	drive(r, 0, 3*resInterval)
	tr, err := r.Trace()
	if err != nil {
		t.Fatalf("sticky error after re-resolution: %v", err)
	}
	if resolves != 1 {
		t.Fatalf("resolver called %d times, want once for the ErrNotExist", resolves)
	}
	if len(tr.Samples) != 3 || tr.Gaps() != 0 || tr.Samples[0] != 42 {
		t.Errorf("resolved probe's samples missing: %v", tr.Samples)
	}
}

func TestRecorderConsecutiveGapLimit(t *testing.T) {
	r := newHardened(t, func() (float64, error) { return 0, ErrIO }, nil)
	drive(r, 0, (maxConsecutiveGaps+10)*resInterval)
	tr, err := r.Trace()
	if !errors.Is(err, ErrChannelDead) {
		t.Fatalf("sticky error = %v, want ErrChannelDead", err)
	}
	// The limit fires on the gap past it; the recording must not have
	// run on gathering gaps forever.
	if got := tr.Gaps(); got != maxConsecutiveGaps+1 {
		t.Errorf("recorded %d gaps before declaring the channel dead, want %d", got, maxConsecutiveGaps+1)
	}
}

func TestRecorderDropoutBurstRecordsGapsWithoutProbing(t *testing.T) {
	calls := 0
	r := newHardened(t, func() (float64, error) { calls++; return 1, nil }, &stubFaults{dropouts: []int{3}})
	drive(r, 0, 6*resInterval)
	tr, err := r.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Gaps(); got != 3 {
		t.Errorf("dropout burst recorded %d gaps, want 3", got)
	}
	if want := len(tr.Samples) - 3; calls != want {
		t.Errorf("probe called %d times for %d live samples", calls, want)
	}
}

func TestRecorderJitterDelaysSubsequentSamples(t *testing.T) {
	mk := func(jitter time.Duration) int {
		var jit []time.Duration
		for i := 0; i < 100; i++ {
			jit = append(jit, jitter)
		}
		r := newHardened(t, func() (float64, error) { return 1, nil }, &stubFaults{jitters: jit})
		drive(r, 0, 20*resInterval)
		tr, err := r.Trace()
		if err != nil {
			t.Fatal(err)
		}
		return len(tr.Samples)
	}
	clean := mk(0)
	jittered := mk(resInterval / 2)
	if jittered >= clean {
		t.Errorf("persistent jitter did not reduce the sample count: %d vs %d", jittered, clean)
	}
}

func TestRecorderResetClearsRetryState(t *testing.T) {
	fail := true
	r := newHardened(t, func() (float64, error) {
		if fail {
			return 0, ErrIO
		}
		return 1, nil
	}, nil)
	// The first sample is due at one interval; its first attempt fails
	// and leaves a retry pending baseBackoff later.
	now := drive(r, 0, resInterval+resTick)
	r.Reset()
	tr, err := r.Trace()
	if err != nil || len(tr.Samples) != 0 {
		t.Fatalf("reset left state behind: %d samples, err %v", len(tr.Samples), err)
	}
	// Run past the dropped retry's time but short of the next interval:
	// nothing is due, so nothing may be recorded.
	fail = false
	drive(r, now, resInterval/2)
	if tr, _ := r.Trace(); len(tr.Samples) != 0 {
		t.Errorf("pending retry survived Reset: %v", tr.Samples)
	}
}

// stubFaults scripts dropout/jitter decisions per due sample.
type stubFaults struct {
	dropouts []int
	jitters  []time.Duration
}

func (f *stubFaults) DropoutLen() int {
	if len(f.dropouts) == 0 {
		return 0
	}
	n := f.dropouts[0]
	f.dropouts = f.dropouts[1:]
	return n
}

func (f *stubFaults) JitterDelay(time.Duration) time.Duration {
	if len(f.jitters) == 0 {
		return 0
	}
	d := f.jitters[0]
	f.jitters = f.jitters[1:]
	return d
}
