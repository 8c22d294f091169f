// Package trace implements side-channel trace acquisition: an in-
// simulation recorder that polls a measurement source at a fixed rate
// (the attacker's sampling loop pinned to CPU core 3 in the paper), and
// a trace container with the windowing and resampling operations the
// fingerprinting pipeline needs.
//
// The recorder is built for a hostile sensor stack. A bare recorder,
// on a board without fault injection, ends the capture at the first
// probe error. A hardened one reads under one fixed retry policy, which
// core.Sampler shares: it retries transient read failures with jittered
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
// seeded fault engine, not from wall-clock scheduling. A recorder counts
// on the tally of the engine it is registered with (see SetTally).
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
// loses more consecutive samples than the hardened read path tolerates
// — the point where a real attacker would abandon the sensor.
var ErrChannelDead = errors.New("trace: channel dead: too many consecutive samples lost")

// Transient read errors, mirroring the errno values a sysfs read
// returns on a busy I2C bus. The fault injector raises them; everything
// else (ENOENT, EPERM, parse errors) is fatal to the sample or the
// capture.
var (
	// ErrAgain models EAGAIN: the read would block; retry immediately.
	ErrAgain = errors.New("resource temporarily unavailable")
	// ErrIO models EIO: a bus-level transfer error; retry after backoff.
	ErrIO = errors.New("input/output error")
)

// IsTransient reports whether err is one of the transient read errors
// (EAGAIN/EIO) that the hardened read path retries.
func IsTransient(err error) bool {
	return errors.Is(err, ErrAgain) || errors.Is(err, ErrIO)
}

// The hardened read path's fixed retry policy. A sample gets at most
// maxAttempts probe calls and a deadline of one sampling interval from
// its due time. Retries back off under decorrelated jitter: each delay
// is drawn uniformly from [baseBackoff, 3*previous] and capped at
// maxBackoff, so samplers retrying against the same faulty sensor
// spread out instead of hammering it in lockstep. More than
// maxConsecutiveGaps lost samples in a row declare the channel dead.
const (
	maxAttempts        = 4
	baseBackoff        = time.Millisecond
	maxBackoff         = 8 * time.Millisecond
	maxConsecutiveGaps = 64
)

// Counters of the hardened read path, shared by every hardened Recorder
// and core.Sampler. They keep the core.sampler.* names the sampler
// introduced them under, which run manifests pin.
var (
	ctrRetries    = obs.C("core.sampler.retries")
	ctrLost       = obs.C("core.sampler.gaps")
	ctrReresolves = obs.C("core.sampler.reresolves")
)

// nextBackoff returns the delay that follows prev, drawn from jitter.
func nextBackoff(prev time.Duration, jitter *sim.Rand) time.Duration {
	next := baseBackoff
	if hi := 3 * prev; hi > baseBackoff {
		next = baseBackoff + time.Duration(jitter.Int63n(int64(hi-baseBackoff)))
	}
	return min(next, maxBackoff)
}

// Retry is one channel's state on the hardened read path: the resolver
// that re-discovers its probe after a hotplug renumber, its backoff
// jitter stream, the retry budget of the sample in flight, and the run
// of consecutive lost samples. A hardened Recorder and a core.Sampler
// on a board with a fault injector each read through one.
type Retry struct {
	resolve  func() (func() (float64, error), error)
	jitter   *sim.Rand
	deadline time.Duration // one sampling interval

	attempts int
	backoff  time.Duration
	lost     int
}

// NewRetry returns the hardened read state of a channel sampled every
// interval. jitter should be a named simulation RNG stream, which keeps
// runs reproducible; resolve re-discovers the channel's probe.
func NewRetry(interval time.Duration, jitter *sim.Rand, resolve func() (func() (float64, error), error)) *Retry {
	return &Retry{resolve: resolve, jitter: jitter, deadline: interval}
}

// Begin starts the retry budget of a new sample.
func (h *Retry) Begin() {
	h.attempts = 0
	h.backoff = baseBackoff
}

// Transient classifies a failed probe call. EAGAIN and EIO are
// transient. So is fs.ErrNotExist, a hotplug renumber that moved the
// attribute: the resolver replaces *probe, and a failed re-resolution
// leaves the next attempt to try again. Anything else is fatal.
func (h *Retry) Transient(err error, probe *func() (float64, error)) bool {
	if !errors.Is(err, fs.ErrNotExist) {
		return IsTransient(err)
	}
	if p, rerr := h.resolve(); rerr == nil {
		*probe = p
		ctrReresolves.Inc()
	}
	return true
}

// Backoff records a transient failure, spent after the sample was due,
// and returns the delay before the next attempt. It returns false when
// the sample is lost: its attempts are used up, or the next delay would
// run past its deadline.
func (h *Retry) Backoff(spent time.Duration) (time.Duration, bool) {
	ctrRetries.Inc()
	h.attempts++
	if h.attempts >= maxAttempts || spent+h.backoff > h.deadline {
		return 0, false
	}
	d := h.backoff
	h.backoff = nextBackoff(d, h.jitter)
	return d, true
}

// Lost records a lost sample and reports whether the channel is now
// dead: more than maxConsecutiveGaps samples lost in a row.
func (h *Retry) Lost() bool {
	ctrLost.Inc()
	h.lost++
	return h.lost > maxConsecutiveGaps
}

// Kept ends a run of lost samples.
func (h *Retry) Kept() { h.lost = 0 }

// Losses returns the length of the current run of lost samples.
func (h *Retry) Losses() int { return h.lost }

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

	// The hardened read path: retry is nil on a bare recorder, faults
	// also when the profile injects no scheduler faults.
	retry  *Retry
	faults SampleFaults

	// the sample in flight
	pending bool
	due     time.Duration
	nextTry time.Duration

	dropoutLeft int

	// reserve is the expected sample count; Reserve sizes the trace's
	// backing array once so the capture loop never regrows it.
	reserve int

	// the recorded samples and gaps, on the tally of the engine that
	// steps the recorder (nil: published at once)
	tally   *obs.Tally
	samples obs.Slot
	gaps    obs.Slot
}

// NewRecorder returns a recorder polling probe every interval.
func NewRecorder(interval time.Duration, probe func() (float64, error)) (*Recorder, error) {
	if interval <= 0 {
		return nil, errors.New("trace: non-positive sampling interval")
	}
	if probe == nil {
		return nil, errors.New("trace: nil probe")
	}
	r := &Recorder{
		interval: interval,
		probe:    probe,
		trace:    &Trace{Interval: interval},
	}
	r.SetTally(nil)
	return r, nil
}

// SetTally implements sim.Counting: the recorder counts its samples and
// gaps on t.
func (r *Recorder) SetTally(t *obs.Tally) {
	r.tally, r.samples, r.gaps = t, t.Slot(ctrSamples), t.Slot(ctrGaps)
}

// Harden puts the recorder on the hardened read path: faults are the
// board's scheduler faults for this recorder, jitter its named backoff
// stream and resolve the re-resolver of its probe.
func (r *Recorder) Harden(faults SampleFaults, jitter *sim.Rand, resolve func() (func() (float64, error), error)) {
	r.faults = faults
	r.retry = NewRetry(r.interval, jitter, resolve)
}

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
		if r.retry != nil {
			r.retry.Begin()
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
	v, err := r.probe()
	r.pending = false
	if err == nil {
		r.trace.Samples = append(r.trace.Samples, v)
		r.tally.Add(r.samples, 1)
		if r.retry != nil {
			r.retry.Kept()
		}
		return
	}
	if r.retry == nil || !r.retry.Transient(err, &r.probe) {
		r.err = err
		return
	}
	d, ok := r.retry.Backoff(now - r.due)
	if !ok {
		r.recordGap()
		return
	}
	r.pending = true
	r.nextTry = now + d
}

// recordGap appends a NaN sample and applies the consecutive-gap limit.
// Only a hardened recorder loses samples.
func (r *Recorder) recordGap() {
	r.trace.Samples = append(r.trace.Samples, Gap)
	r.tally.Add(r.gaps, 1)
	if r.retry.Lost() {
		r.err = fmt.Errorf("trace: %d consecutive losses: %w", r.retry.Losses(), ErrChannelDead)
	}
}

// Trace returns the recorded trace and any sticky probe error. On a
// bare recorder any probe error (e.g. fs.ErrPermission after the
// mitigation is applied) stops the recording at the failing sample; on
// a hardened one, only fatal errors and ErrChannelDead are sticky.
func (r *Recorder) Trace() (*Trace, error) { return r.trace, r.err }

// Reset discards recorded samples and retry state, keeping the
// configuration; used between victim runs. The new trace keeps the old
// one's backing array while that holds no samples (a Reserve just
// before Reset), so a trace handed out earlier keeps what it recorded;
// an empty one must not be appended to after the Reset.
func (r *Recorder) Reset() {
	old := r.trace.Samples
	r.trace = &Trace{Interval: r.interval}
	if r.reserve > 0 {
		if len(old) == 0 && cap(old) >= r.reserve {
			r.trace.Samples = old
		} else {
			r.trace.Samples = make([]float64, 0, r.reserve)
		}
	}
	r.elapsed = 0
	r.err = nil
	r.pending = false
	r.dropoutLeft = 0
	if r.retry != nil {
		r.retry.Kept()
	}
}

// SysfsProbe builds a probe that reads an integer hwmon attribute as the
// given credential and scales it into base units (scale 1e-3 for the mA
// and mV attributes, 1e-6 for µW). This is the attacker's actual access
// path: an unprivileged file read. The probe holds the path as a bound
// sysfs.File, so a read walks the path only after the tree has changed,
// and it parses a reading only when its text differs from the last one
// parsed: hwmon hands back the identical string until the sensor
// latches a new value.
func SysfsProbe(fsys *sysfs.FS, cred sysfs.Cred, path string, scale float64) func() (float64, error) {
	p := &sysfsProbe{file: fsys.Bind(path), cred: cred, path: path, scale: scale}
	return p.read
}

// sysfsProbe is the state behind a SysfsProbe: the bound file and the
// last text it parsed, with that text's scaled value.
type sysfsProbe struct {
	file  *sysfs.File
	cred  sysfs.Cred
	path  string
	scale float64

	parsed bool
	raw    string
	v      float64
}

func (p *sysfsProbe) read() (float64, error) {
	raw, err := p.file.Read(p.cred)
	if err != nil {
		return 0, err
	}
	if p.parsed && raw == p.raw {
		return p.v, nil
	}
	n, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: parse %s: %w", p.path, err)
	}
	p.parsed, p.raw, p.v = true, raw, float64(n)*p.scale
	return p.v, nil
}
