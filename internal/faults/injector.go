package faults

import (
	"math"
	"strings"
	"time"

	"repro/internal/hwmon"
	"repro/internal/ina226"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Per-kind injection counters. They live in the process-wide registry
// so the robustness experiments can report exactly how much abuse each
// run absorbed.
var (
	cEAGAIN       = obs.C("faults.injected.sysfs_eagain")
	cEIO          = obs.C("faults.injected.sysfs_eio")
	cStale        = obs.C("faults.injected.stale_latch")
	cBitFlip      = obs.C("faults.injected.bitflip")
	cJitter       = obs.C("faults.injected.jitter")
	cDropout      = obs.C("faults.injected.dropout")
	cHotplug      = obs.C("faults.injected.hotplug")
	cRegTransient = obs.C("faults.injected.reg_transient")
)

// Injector materializes a Profile into the concrete hooks the hardware
// and sampling layers accept. One injector serves one board; all its
// randomness comes from the board engine's named streams, one stream
// per injection site.
type Injector struct {
	p   Profile
	eng *sim.Engine
}

// New returns an injector drawing from eng's deterministic streams.
func New(p Profile, eng *sim.Engine) *Injector {
	return &Injector{p: p, eng: eng}
}

// Profile returns the profile the injector was built from.
func (in *Injector) Profile() Profile { return in.p }

// valueAttr reports whether a sysfs path is a measurement attribute —
// the reads backed by real I2C transactions, and thus the only ones
// that fail transiently under bus contention. Discovery metadata
// (name, label) stays reliable.
func valueAttr(path string) bool {
	for _, a := range hwmon.ValueAttrs {
		if strings.HasSuffix(path, "/"+a) {
			return true
		}
	}
	return false
}

// SysfsReadFault is the read-fault binder for sysfs.FS.SetReadFault:
// each read of a measurement attribute fails with probability
// SysfsErrorRate, split EIO/EAGAIN by SysfsEIORatio; every other path
// gets no hook. Faults are drawn from a per-path stream, looked up once
// per binding, so the sequence each attribute sees is independent of
// read ordering across attributes and of how often its path is bound.
func (in *Injector) SysfsReadFault(path string) func() error {
	if in.p.SysfsErrorRate <= 0 || !valueAttr(path) {
		return nil
	}
	rng := in.eng.Stream("faults/sysfs/" + path)
	rate, eio := in.p.SysfsErrorRate, in.p.SysfsErrorRate*in.p.SysfsEIORatio
	return func() error {
		u := rng.Float64()
		if u >= rate {
			return nil
		}
		if u < eio {
			cEIO.Inc()
			return trace.ErrIO
		}
		cEAGAIN.Inc()
		return trace.ErrAgain
	}
}

// SensorFaults returns the INA226 latch hooks for one sensor: stale
// latches with probability StaleRate and single-bit register
// corruption with probability BitFlipRate, each on its own per-label
// stream.
func (in *Injector) SensorFaults(label string) ina226.FaultHooks {
	var h ina226.FaultHooks
	if in.p.StaleRate > 0 {
		rng := in.eng.Stream("faults/ina226/stale/" + label)
		rate := in.p.StaleRate
		h.SkipLatch = func() bool {
			if rng.Float64() < rate {
				cStale.Inc()
				return true
			}
			return false
		}
	}
	if in.p.BitFlipRate > 0 {
		rng := in.eng.Stream("faults/ina226/flip/" + label)
		rate := in.p.BitFlipRate
		h.FlipLatch = func() ina226.LatchedRegs {
			if rng.Float64() >= rate {
				return ina226.LatchedRegs{}
			}
			// Flip one of the 16 architectural bits of one register.
			var m [4]int32
			reg := rng.Intn(4)
			m[reg] = 1 << uint(rng.Intn(16))
			cBitFlip.Inc()
			return ina226.LatchedRegs{Shunt: m[0], Bus: m[1], Current: m[2], Power: m[3]}
		}
	}
	return h
}

// samplerFaults implements trace.SampleFaults on one per-key stream.
type samplerFaults struct {
	p   Profile
	rng *sim.Rand
}

func (s *samplerFaults) JitterDelay(interval time.Duration) time.Duration {
	if s.p.JitterRate <= 0 {
		return 0
	}
	if s.rng.Float64() >= s.p.JitterRate {
		return 0
	}
	cJitter.Inc()
	return time.Duration(s.rng.Float64() * s.p.JitterFrac * float64(interval))
}

func (s *samplerFaults) DropoutLen() int {
	if s.p.DropoutRate <= 0 {
		return 0
	}
	if s.rng.Float64() >= s.p.DropoutRate {
		return 0
	}
	n := s.p.DropoutLen
	if n < 1 {
		n = 1
	}
	cDropout.Inc()
	k := 1 + s.rng.Intn(n)
	return k
}

// SamplerFaults returns the scheduler fault hook for one sampling loop
// (jitter + dropout bursts). key names the loop — use the recorded
// channel, e.g. "sampler/u76/curr" — so concurrent recorders draw from
// separate named streams.
func (in *Injector) SamplerFaults(key string) trace.SampleFaults {
	if in.p.JitterRate <= 0 && in.p.DropoutRate <= 0 {
		return nil
	}
	return &samplerFaults{p: in.p, rng: in.eng.Stream("faults/" + key)}
}

// regTransientTau is the decay time constant of an injected regulator
// excursion — a few engine ticks, like a real VRM recovering from a
// load step.
const regTransientTau = 500 * time.Microsecond

// RegulatorDisturbance returns the per-tick output-voltage transient
// hook for one rail (for pdn.Regulator.SetDisturbance), or nil when
// the profile has no regulator faults. Excursions fire as a Poisson
// process at RegTransientRate per simulated second, jump to a random
// amplitude within ±RegTransientVolts, and decay exponentially.
func (in *Injector) RegulatorDisturbance(rail string) func(now time.Duration) float64 {
	if in.p.RegTransientRate <= 0 || in.p.RegTransientVolts <= 0 {
		return nil
	}
	rng := in.eng.Stream("faults/regulator/" + rail)
	rate := in.p.RegTransientRate
	volts := in.p.RegTransientVolts
	var amp float64
	var last time.Duration
	return func(now time.Duration) float64 {
		if dt := now - last; dt > 0 && amp != 0 {
			amp *= math.Exp(-dt.Seconds() / regTransientTau.Seconds())
			if math.Abs(amp) < 1e-6 {
				amp = 0
			}
		}
		last = now
		if rng.Float64() < rate*in.eng.Dt().Seconds() {
			a := volts * (0.5 + 0.5*rng.Float64())
			if rng.Intn(2) == 0 {
				a = -a
			}
			amp = a
			cRegTransient.Inc()
		}
		return amp
	}
}

// HotplugStepper returns a component that renumbers the hwmon class as
// a Poisson process at HotplugRate events per simulated second, or nil
// when the profile has no hotplug faults. Register it with the board
// engine; readers holding pre-renumber paths see ErrNotExist until
// they re-discover.
func (in *Injector) HotplugStepper(hw *hwmon.Subsystem) sim.Steppable {
	if in.p.HotplugRate <= 0 {
		return nil
	}
	rng := in.eng.Stream("faults/hotplug")
	rate := in.p.HotplugRate
	return sim.StepFunc(func(now, dt time.Duration) {
		if rng.Float64() >= rate*dt.Seconds() {
			return
		}
		shift := 1 + rng.Intn(4)
		if err := hw.Renumber(shift); err == nil {
			cHotplug.Inc()
		}
	})
}
