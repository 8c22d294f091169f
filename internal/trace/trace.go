// Package trace implements side-channel trace acquisition: an in-
// simulation recorder that polls a measurement source at a fixed rate
// (the attacker's sampling loop pinned to CPU core 3 in the paper), and
// a trace container with the windowing and resampling operations the
// fingerprinting pipeline needs.
//
// The recorder is built for a hostile sensor stack: with a RetryPolicy
// installed it retries transient read failures with capped exponential
// backoff in simulated time, re-resolves its probe after hotplug
// renumber events, and records unrecoverable samples as NaN gaps
// instead of aborting the capture. Downstream consumers (Resample,
// Spectrum, the feature extractor) treat NaN samples as missing data.
package trace

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sysfs"
)

// Acquisition volume counters, shared by every recorder in the process.
// Both are deterministic for a fixed seed and config: gaps come from the
// seeded fault engine, not from wall-clock scheduling.
var (
	ctrSamples = obs.C("trace.samples_recorded")
	ctrGaps    = obs.C("trace.gaps_recorded")
)

// Gap is the in-trace representation of a lost sample.
var Gap = math.NaN()

// IsGap reports whether a sample is a lost-sample marker.
func IsGap(v float64) bool { return math.IsNaN(v) }

// Trace is a uniformly sampled measurement series. Lost samples are
// recorded as NaN so the time base stays uniform across gaps.
type Trace struct {
	// Interval between samples.
	Interval time.Duration
	// Samples in acquisition order, in the source's physical unit.
	Samples []float64
}

// Duration returns the time span covered by the trace.
func (t *Trace) Duration() time.Duration {
	return time.Duration(len(t.Samples)) * t.Interval
}

// Gaps returns the number of lost (NaN) samples.
func (t *Trace) Gaps() int {
	n := 0
	for _, s := range t.Samples {
		if IsGap(s) {
			n++
		}
	}
	return n
}

// Finite returns the samples with gaps removed. The result may share
// backing storage with t when the trace has no gaps.
func (t *Trace) Finite() []float64 {
	if t.Gaps() == 0 {
		return t.Samples
	}
	out := make([]float64, 0, len(t.Samples))
	for _, s := range t.Samples {
		if !IsGap(s) {
			out = append(out, s)
		}
	}
	return out
}

// PadGaps extends the trace with NaN gaps until it holds at least n
// samples — used when a jittered capture undershoots its nominal
// sample budget, so fixed-width consumers still get their window.
func (t *Trace) PadGaps(n int) {
	for len(t.Samples) < n {
		t.Samples = append(t.Samples, Gap)
	}
}

// Prefix returns a view of the first d worth of samples (the duration
// sweep of Table III uses 1 s..5 s prefixes of the same capture). The
// returned trace shares backing storage with t.
func (t *Trace) Prefix(d time.Duration) (*Trace, error) {
	if t.Interval <= 0 {
		return nil, errors.New("trace: non-positive interval")
	}
	n := int(d / t.Interval)
	if n < 0 || n > len(t.Samples) {
		return nil, fmt.Errorf("trace: prefix %v outside captured %v", d, t.Duration())
	}
	return &Trace{Interval: t.Interval, Samples: t.Samples[:n]}, nil
}

// countsPool recycles the per-bin hit-count scratch used by
// ResampleInto. The counts never leave the function, so pooling them is
// safe; the output vector itself is caller-owned and never pooled.
var countsPool = sync.Pool{New: func() any { return new([]int) }}

// Resample average-pools the trace into exactly n bins, the fixed-width
// representation fed to the classifier. Each bin is the mean of the
// finite samples mapped into it; NaN gaps are treated as missing data,
// and bins left empty by gaps or by having more bins than samples are
// filled from their neighbours so the vector stays piecewise constant.
// A trace whose samples are all gaps resamples to the zero vector.
//
// The returned slice is freshly allocated and never aliases internal
// scratch; mutating it cannot affect later Resample calls.
func (t *Trace) Resample(n int) ([]float64, error) {
	if n <= 0 {
		return nil, errors.New("trace: non-positive bin count")
	}
	out := make([]float64, n)
	if err := t.ResampleInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// ResampleInto is Resample writing into a caller-supplied vector of
// len(dst) bins — the allocation-free path for feature extractors that
// assemble resampled bins and summary statistics into one preallocated
// feature vector. dst is fully overwritten.
func (t *Trace) ResampleInto(dst []float64) error {
	n := len(dst)
	if n <= 0 {
		return errors.New("trace: non-positive bin count")
	}
	if len(t.Samples) == 0 {
		return errors.New("trace: empty trace")
	}
	out := dst
	for i := range out {
		out[i] = 0
	}
	cp := countsPool.Get().(*[]int)
	defer countsPool.Put(cp)
	if cap(*cp) < n {
		*cp = make([]int, n)
	}
	counts := (*cp)[:n]
	for i := range counts {
		counts[i] = 0
	}
	for i, s := range t.Samples {
		if IsGap(s) {
			continue
		}
		bin := i * n / len(t.Samples)
		out[bin] += s
		counts[bin]++
	}
	first := -1
	for i := range out {
		if counts[i] > 0 {
			out[i] /= float64(counts[i])
			if first < 0 {
				first = i
			}
		} else if i > 0 {
			// Empty bin (gap or more bins than samples): carry the
			// previous bin forward.
			out[i] = out[i-1]
		}
	}
	if first < 0 {
		return nil // every sample lost: degrade to the zero vector
	}
	// Back-fill bins before the first informative one (leading gaps).
	for i := 0; i < first; i++ {
		out[i] = out[first]
	}
	return nil
}

// ErrChannelDead is the sticky recorder error raised when the channel
// loses more consecutive samples than the policy tolerates — the point
// where a real attacker would abandon the sensor.
var ErrChannelDead = errors.New("trace: channel dead: too many consecutive samples lost")

// RetryPolicy governs how a resilient sampler treats probe failures.
// All delays are in simulated time. The zero value is usable after
// WithDefaults; a nil policy on a Recorder restores the legacy
// behaviour (any probe error is sticky and ends the recording).
type RetryPolicy struct {
	// MaxAttempts bounds the probe calls per sample, first try
	// included. Zero means 4.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; it doubles per
	// attempt. Zero means 1 ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff. Zero means 8 ms.
	MaxBackoff time.Duration
	// SampleDeadline is the per-sample time budget measured from the
	// sample's due time; when the next backoff would exceed it the
	// sample is recorded as a gap. Zero means one sampling interval.
	SampleDeadline time.Duration
	// MaxConsecutiveGaps turns a run of lost samples into the sticky
	// ErrChannelDead. Zero means 64; negative disables the limit.
	MaxConsecutiveGaps int
	// Transient classifies an error as retryable. Nil classifies
	// nothing as retryable (every error is fatal).
	Transient func(error) bool
	// Resolve, when set, is called after a read fails with
	// fs.ErrNotExist (a hotplug renumber moved the attribute) to
	// obtain a fresh probe; resolution failures count as transient.
	Resolve func() (func() (float64, error), error)
	// OnRetry and OnGap are optional metric hooks, invoked once per
	// retried attempt and once per recorded gap.
	OnRetry func()
	OnGap   func()
	// Rand, when set, switches the backoff schedule from capped doubling
	// to decorrelated jitter: each delay is drawn uniformly from
	// [BaseBackoff, 3*previous], then capped at MaxBackoff, so parallel
	// samplers retrying against the same faulty sensor spread out
	// instead of hammering it in lockstep. Feed it a named simulation
	// RNG stream to keep runs reproducible. Nil keeps plain doubling.
	Rand *sim.Rand
}

// NextBackoff returns the delay that follows prev under this policy:
// decorrelated jitter when Rand is set, capped doubling otherwise.
func (p RetryPolicy) NextBackoff(prev time.Duration) time.Duration {
	next := 2 * prev
	if p.Rand != nil {
		if hi := 3 * prev; hi > p.BaseBackoff {
			next = p.BaseBackoff + time.Duration(p.Rand.Int63n(int64(hi-p.BaseBackoff)))
		} else {
			next = p.BaseBackoff
		}
	}
	if next > p.MaxBackoff {
		next = p.MaxBackoff
	}
	return next
}

// WithDefaults returns the policy with zero fields replaced by their
// defaults; interval supplies the SampleDeadline default.
func (p RetryPolicy) WithDefaults(interval time.Duration) RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff == 0 {
		p.BaseBackoff = time.Millisecond
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = 8 * time.Millisecond
	}
	if p.SampleDeadline == 0 {
		p.SampleDeadline = interval
	}
	if p.MaxConsecutiveGaps == 0 {
		p.MaxConsecutiveGaps = 64
	}
	return p
}

// SampleFaults is the attacker-side scheduler fault hook: the
// fault-injection layer implements it to jitter the sampling period
// (preemption) and to blank whole sample runs (the sampling task
// descheduled entirely). Both methods are consulted once per due
// sample.
type SampleFaults interface {
	// JitterDelay returns extra delay to add after the current sample,
	// pushing subsequent samples late. Zero means no jitter.
	JitterDelay(interval time.Duration) time.Duration
	// DropoutLen returns the length of a dropout burst starting at the
	// current sample, or zero. Samples inside a burst are recorded as
	// gaps without touching the probe.
	DropoutLen() int
}

// Recorder polls a probe at a fixed rate while the simulation runs.
// Register it with the engine after every hardware component, so each
// poll observes that tick's settled sysfs state.
type Recorder struct {
	interval time.Duration
	probe    func() (float64, error)
	trace    *Trace
	elapsed  time.Duration
	err      error

	policy *RetryPolicy // nil: legacy sticky-error behaviour
	faults SampleFaults // nil: no injected scheduler faults

	// retry state of the sample in flight
	pending  bool
	due      time.Duration
	nextTry  time.Duration
	backoff  time.Duration
	attempts int

	dropoutLeft int
	consecGaps  int

	// reserve is the expected sample count; Reserve sizes the trace's
	// backing array once so the capture loop never regrows it.
	reserve int
}

// NewRecorder returns a recorder polling probe every interval.
func NewRecorder(interval time.Duration, probe func() (float64, error)) (*Recorder, error) {
	if interval <= 0 {
		return nil, errors.New("trace: non-positive sampling interval")
	}
	if probe == nil {
		return nil, errors.New("trace: nil probe")
	}
	return &Recorder{
		interval: interval,
		probe:    probe,
		trace:    &Trace{Interval: interval},
	}, nil
}

// SetPolicy installs the retry policy (normalized with WithDefaults);
// nil restores the legacy behaviour where any probe error is sticky.
func (r *Recorder) SetPolicy(p *RetryPolicy) {
	if p == nil {
		r.policy = nil
		return
	}
	norm := p.WithDefaults(r.interval)
	r.policy = &norm
}

// SetFaults installs the scheduler fault hook; nil removes it.
func (r *Recorder) SetFaults(f SampleFaults) { r.faults = f }

// Reserve preallocates capacity for n samples so the append in the
// capture loop never regrows the backing array mid-run. The hint
// persists across Reset. Non-positive n is a no-op.
func (r *Recorder) Reserve(n int) {
	if n <= 0 {
		return
	}
	r.reserve = n
	if cap(r.trace.Samples)-len(r.trace.Samples) < n {
		grown := make([]float64, len(r.trace.Samples), len(r.trace.Samples)+n)
		copy(grown, r.trace.Samples)
		r.trace.Samples = grown
	}
}

// Step implements sim.Steppable.
func (r *Recorder) Step(now, dt time.Duration) {
	if r.err != nil {
		return
	}
	r.elapsed += dt
	// A pending sample blocks the pipeline like a sampling loop stuck
	// inside a retrying read; later samples queue up behind it in
	// elapsed and are drained when it resolves.
	if r.pending {
		if now < r.nextTry {
			return
		}
		r.attempt(now)
		if r.pending || r.err != nil {
			return
		}
	}
	for r.elapsed >= r.interval && r.err == nil {
		r.elapsed -= r.interval
		if r.faults != nil && r.dropoutLeft == 0 {
			if k := r.faults.DropoutLen(); k > 0 {
				r.dropoutLeft = k
			}
			if j := r.faults.JitterDelay(r.interval); j > 0 {
				r.elapsed -= j // preemption pushes later samples late
			}
		}
		if r.dropoutLeft > 0 {
			r.dropoutLeft--
			r.recordGap()
			continue
		}
		r.due = now
		r.attempts = 0
		if r.policy != nil {
			r.backoff = r.policy.BaseBackoff
		}
		r.pending = true
		r.attempt(now)
		if r.pending {
			return
		}
	}
}

// attempt performs one probe call for the pending sample and either
// records a value, schedules a retry, records a gap, or fails sticky.
func (r *Recorder) attempt(now time.Duration) {
	r.attempts++
	v, err := r.probe()
	if err == nil {
		r.trace.Samples = append(r.trace.Samples, v)
		ctrSamples.Inc()
		r.consecGaps = 0
		r.pending = false
		return
	}
	if r.policy == nil {
		r.err = err
		r.pending = false
		return
	}
	transient := r.policy.Transient != nil && r.policy.Transient(err)
	if errors.Is(err, fs.ErrNotExist) && r.policy.Resolve != nil {
		// Hotplug window: the attribute moved; re-resolve and retry.
		if probe, rerr := r.policy.Resolve(); rerr == nil {
			r.probe = probe
		}
		transient = true
	}
	if !transient {
		r.err = err
		r.pending = false
		return
	}
	if r.policy.OnRetry != nil {
		r.policy.OnRetry()
	}
	if r.attempts >= r.policy.MaxAttempts || now-r.due+r.backoff > r.policy.SampleDeadline {
		r.recordGap()
		r.pending = false
		return
	}
	r.nextTry = now + r.backoff
	r.backoff = r.policy.NextBackoff(r.backoff)
}

// recordGap appends a NaN sample and applies the consecutive-gap limit.
func (r *Recorder) recordGap() {
	r.trace.Samples = append(r.trace.Samples, Gap)
	ctrGaps.Inc()
	r.consecGaps++
	if r.policy != nil {
		if r.policy.OnGap != nil {
			r.policy.OnGap()
		}
		if r.policy.MaxConsecutiveGaps > 0 && r.consecGaps > r.policy.MaxConsecutiveGaps {
			r.err = fmt.Errorf("trace: %d consecutive losses: %w", r.consecGaps, ErrChannelDead)
		}
	}
}

// Trace returns the recorded trace and any sticky probe error. Without
// a retry policy, any probe error (e.g. fs.ErrPermission after the
// mitigation is applied) stops the recording at the failing sample;
// with one, only fatal errors and ErrChannelDead are sticky.
func (r *Recorder) Trace() (*Trace, error) { return r.trace, r.err }

// Reset discards recorded samples and retry state, keeping the
// configuration; used between victim runs.
func (r *Recorder) Reset() {
	r.trace = &Trace{Interval: r.interval}
	if r.reserve > 0 {
		r.trace.Samples = make([]float64, 0, r.reserve)
	}
	r.elapsed = 0
	r.err = nil
	r.pending = false
	r.attempts = 0
	r.dropoutLeft = 0
	r.consecGaps = 0
}

// SysfsProbe builds a probe that reads an integer hwmon attribute as the
// given credential and scales it into base units (scale 1e-3 for the mA
// and mV attributes, 1e-6 for µW). This is the attacker's actual access
// path: an unprivileged file read.
func SysfsProbe(fsys *sysfs.FS, cred sysfs.Cred, path string, scale float64) func() (float64, error) {
	return func() (float64, error) {
		raw, err := fsys.ReadFile(cred, path)
		if err != nil {
			return 0, err
		}
		v, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("trace: parse %s: %w", path, err)
		}
		return float64(v) * scale, nil
	}
}
