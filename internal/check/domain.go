package check

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/faults"
	"repro/internal/trace"
)

// FloatsConfig dials the float-slice generator. Zero rates mean
// all-finite slices.
type FloatsConfig struct {
	// MinLen/MaxLen bound the slice length (defaults 1/64).
	MinLen, MaxLen int
	// Min/Max bound the finite values (defaults -1000/1000).
	Min, Max float64
	// NaNRate/InfRate are per-element probabilities of replacing the
	// value with NaN / ±Inf, mimicking gap samples and sensor garbage.
	NaNRate, InfRate float64
}

func (c *FloatsConfig) fill() {
	if c.MaxLen == 0 {
		c.MaxLen = 64
	}
	if c.MinLen > c.MaxLen {
		c.MinLen = c.MaxLen
	}
	if c.Min == 0 && c.Max == 0 {
		c.Min, c.Max = -1000, 1000
	}
}

// Floats generates float slices with dialed-in NaN/Inf contamination.
// Shrinking removes elements first, then simplifies survivors toward
// zero — but keeps NaN/Inf elements as-is (shrinking the poison away
// would un-falsify a non-finite-rejection property).
func Floats(cfg FloatsConfig) Gen[[]float64] {
	cfg.fill()
	elem := Gen[float64]{
		Generate: func(r *rand.Rand, _ int) float64 {
			p := r.Float64()
			switch {
			case p < cfg.NaNRate:
				return math.NaN()
			case p < cfg.NaNRate+cfg.InfRate:
				if r.Intn(2) == 0 {
					return math.Inf(1)
				}
				return math.Inf(-1)
			default:
				return cfg.Min + r.Float64()*(cfg.Max-cfg.Min)
			}
		},
		Shrink: func(v float64) []float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil // keep the poison; it is usually the point
			}
			return Float64Range(cfg.Min, cfg.Max).Shrink(v)
		},
	}
	g := SliceOf(elem, cfg.MinLen, cfg.MaxLen)
	g.Describe = FloatDescribe
	return g
}

// PeriodicTrace is a generated trace with a planted periodicity the
// property can check recovery of.
type PeriodicTrace struct {
	Trace *trace.Trace
	// PeriodSamples is the planted period in samples; Bin is the
	// matching spectrum bin (len(Samples)/PeriodSamples).
	PeriodSamples int
	Bin           int
	// Amplitude and Offset of the planted sine; Gaps counts NaN
	// samples punched into the trace.
	Amplitude, Offset float64
	Gaps              int
}

// TraceConfig dials the periodic-trace generator.
type TraceConfig struct {
	// GapRate is the per-sample probability of a gap (NaN).
	GapRate float64
	// Noise is the uniform noise amplitude added to each sample as a
	// fraction of the sine amplitude (default 0: pure tone).
	Noise float64
}

// PeriodicTraces generates traces of n = bin·period samples carrying
// offset + A·sin(2π·bin·j/n), so the planted tone of PeriodSamples
// samples lands exactly on spectrum bin `bin`. Periods are >= 8 samples
// and bins >= 2, keeping the planted bin at most n/8, far below the
// Nyquist limit. No Shrink: a smaller trace
// would have a different planted period, which is not "the same bug,
// simpler" — failures replay via the seed instead.
func PeriodicTraces(cfg TraceConfig) Gen[PeriodicTrace] {
	return Gen[PeriodicTrace]{
		Generate: func(r *rand.Rand, size int) PeriodicTrace {
			bin := 2 + r.Intn(7)     // 2..8
			period := 8 + r.Intn(25) // 8..32 samples
			n := bin * period
			amp := 0.05 + r.Float64()*0.95
			offset := 0.5 + r.Float64()*2.0
			tr := &trace.Trace{
				Interval: 2 * time.Millisecond, // INA226 fastest legal update interval
				Samples:  make([]float64, n),
			}
			gaps := 0
			for j := 0; j < n; j++ {
				if cfg.GapRate > 0 && r.Float64() < cfg.GapRate {
					tr.Samples[j] = trace.Gap
					gaps++
					continue
				}
				v := offset + amp*math.Sin(2*math.Pi*float64(bin)*float64(j)/float64(n))
				if cfg.Noise > 0 {
					v += amp * cfg.Noise * (2*r.Float64() - 1)
				}
				tr.Samples[j] = v
			}
			return PeriodicTrace{
				Trace:         tr,
				PeriodSamples: period,
				Bin:           bin,
				Amplitude:     amp,
				Offset:        offset,
				Gaps:          gaps,
			}
		},
		Describe: func(p PeriodicTrace) string {
			return fmt.Sprintf("PeriodicTrace{n=%d period=%d bin=%d amp=%.3f offset=%.3f gaps=%d}",
				len(p.Trace.Samples), p.PeriodSamples, p.Bin, p.Amplitude, p.Offset, p.Gaps)
		},
	}
}

// Bits generates covert-channel payloads: 0/1 slices with length in
// [minLen, maxLen]. Shrinking removes bits and flips 1s to 0s.
func Bits(minLen, maxLen int) Gen[[]int] {
	elem := Gen[int]{
		Generate: func(r *rand.Rand, _ int) int { return r.Intn(2) },
		Shrink: func(v int) []int {
			if v == 1 {
				return []int{0}
			}
			return nil
		},
	}
	g := SliceOf(elem, minLen, maxLen)
	g.Describe = func(bits []int) string {
		out := make([]byte, len(bits))
		for i, b := range bits {
			out[i] = '0' + byte(b)
		}
		return string(out)
	}
	return g
}

// FaultProfiles generates valid fault profiles spanning none→hostile
// intensity. Shrinking zeroes one rate at a time, isolating which
// fault class triggers a failure.
func FaultProfiles() Gen[faults.Profile] {
	return Gen[faults.Profile]{
		Generate: func(r *rand.Rand, _ int) faults.Profile {
			rate := func(max float64) float64 {
				if r.Intn(2) == 0 {
					return 0
				}
				return r.Float64() * max
			}
			p := faults.Profile{
				Name:           "generated",
				SysfsErrorRate: rate(0.2),
				SysfsEIORatio:  r.Float64(),
				StaleRate:      rate(0.2),
				BitFlipRate:    rate(0.05),
				JitterRate:     rate(0.3),
				JitterFrac:     0.5 * r.Float64(),
				DropoutRate:    rate(0.05),
				HotplugRate:    rate(2.0),
			}
			if p.DropoutRate > 0 {
				p.DropoutLen = 1 + r.Intn(8)
			}
			if r.Intn(2) == 0 {
				p.RegTransientRate = rate(2.0)
				p.RegTransientVolts = 0.05 * r.Float64()
			}
			return p
		},
		Shrink: func(p faults.Profile) []faults.Profile {
			var out []faults.Profile
			zero := func(f func(*faults.Profile)) {
				q := p
				f(&q)
				out = append(out, q)
			}
			if p.SysfsErrorRate > 0 {
				zero(func(q *faults.Profile) { q.SysfsErrorRate = 0 })
			}
			if p.StaleRate > 0 {
				zero(func(q *faults.Profile) { q.StaleRate = 0 })
			}
			if p.BitFlipRate > 0 {
				zero(func(q *faults.Profile) { q.BitFlipRate = 0 })
			}
			if p.JitterRate > 0 {
				zero(func(q *faults.Profile) { q.JitterRate = 0 })
			}
			if p.DropoutRate > 0 {
				zero(func(q *faults.Profile) { q.DropoutRate = 0; q.DropoutLen = 0 })
			}
			if p.HotplugRate > 0 {
				zero(func(q *faults.Profile) { q.HotplugRate = 0 })
			}
			if p.RegTransientRate > 0 {
				zero(func(q *faults.Profile) { q.RegTransientRate = 0; q.RegTransientVolts = 0 })
			}
			return out
		},
		Describe: func(p faults.Profile) string {
			return fmt.Sprintf("faults.Profile{sysfs=%.3f stale=%.3f flip=%.4f jitter=%.3f/%.2f dropout=%.4f/%d hotplug=%.2f reg=%.2f/%.3fV}",
				p.SysfsErrorRate, p.StaleRate, p.BitFlipRate, p.JitterRate, p.JitterFrac,
				p.DropoutRate, p.DropoutLen, p.HotplugRate, p.RegTransientRate, p.RegTransientVolts)
		},
	}
}
