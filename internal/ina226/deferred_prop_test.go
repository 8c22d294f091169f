package ina226_test

// Differential suite for a deferred device: a device deferred on a
// Clock and an eager twin stepped directly, each on its own engine with
// the same seed (so identical probe, noise and fault streams), run the
// same random program of ticks, accessors, register writes, interval
// changes and fault-hook swaps. Every observation must agree bit for
// bit.
//
// After each op the suite compares what does not sync the deferred
// device: the op's own result, Updates() and the process counters'
// deltas. Read(), every register and Alert() are compared at snapshot
// ops and at the end of the program. Comparing them after every op
// would sync the deferred device each time, so an accessor that forgot
// its own sync() would go unnoticed; TestMutantDeferredMissingSync
// checks that this one is noticed.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/faults"
	"repro/internal/ina226"
	"repro/internal/obs"
	"repro/internal/sim"
)

type opKind int

const (
	opTick opKind = iota
	opRead
	opReg
	opReadRegister
	opWriteRegister
	opSetInterval
	opAlert
	opFaults
	opSnapshot
)

var opNames = [...]string{"tick", "read", "reg", "readreg", "writereg", "interval", "alert", "faults", "snapshot"}

// op is one step of a program. N is the tick count (opTick), the
// register accessor (opReg), the interval in ms (opSetInterval) or the
// hook set (opFaults: bit 0 stale, bit 1 flip).
type op struct {
	Kind opKind
	N    int
	Dt   time.Duration
	Reg  ina226.Register
	Val  uint16
}

func (o op) String() string {
	switch o.Kind {
	case opTick:
		return fmt.Sprintf("tick(%d×%v)", o.N, o.Dt)
	case opReadRegister:
		return fmt.Sprintf("readreg(%#x)", uint8(o.Reg))
	case opWriteRegister:
		return fmt.Sprintf("writereg(%#x,%#04x)", uint8(o.Reg), o.Val)
	default:
		return fmt.Sprintf("%s(%d)", opNames[o.Kind], o.N)
	}
}

// program is one differential scenario: the rail the probe reports
// (its own stream's noise on a constant current plus a drift its
// upstream steps per tick, a constant bus voltage), the ADC noise, the
// fault rates and the ops.
type program struct {
	Seed        int64
	Amps, Volts float64
	Noisy       bool
	Stale, Flip float64
	Ops         []op
}

var dts = []time.Duration{100 * time.Microsecond, 500 * time.Microsecond, time.Millisecond, 3 * time.Millisecond}

var writable = []ina226.Register{
	ina226.RegConfig, ina226.RegCalibration, ina226.RegMaskEnable, ina226.RegAlertLimit, ina226.RegCurrent,
}

var alertFuncs = []uint16{
	0, ina226.AlertShuntOver, ina226.AlertShuntUnder, ina226.AlertBusOver,
	ina226.AlertBusUnder, ina226.AlertPowerOver,
}

var allRegisters = []ina226.Register{
	ina226.RegConfig, ina226.RegShuntVoltage, ina226.RegBusVoltage, ina226.RegPower,
	ina226.RegCurrent, ina226.RegCalibration, ina226.RegMaskEnable, ina226.RegAlertLimit,
	ina226.RegManufacturerID, ina226.RegDieID,
}

var ops = check.SliceOf(check.Gen[op]{
	Generate: func(r *rand.Rand, _ int) op {
		// Ticks are drawn as often as all other ops together, so
		// programs build up pending ticks spanning several latches.
		if r.Intn(2) == 0 {
			return op{Kind: opTick, N: 1 + r.Intn(200), Dt: dts[r.Intn(len(dts))]}
		}
		o := op{Kind: opKind(1 + r.Intn(int(opSnapshot)))}
		switch o.Kind {
		case opReg:
			o.N = r.Intn(4)
		case opReadRegister:
			o.Reg = allRegisters[r.Intn(len(allRegisters))]
		case opWriteRegister:
			o.Reg = writable[r.Intn(len(writable))]
			switch o.Reg {
			case ina226.RegConfig:
				o.Val = uint16(r.Intn(1 << 15))
				if r.Intn(3) == 0 {
					o.Val |= 1 << 15 // reset
				}
			case ina226.RegMaskEnable:
				o.Val = alertFuncs[r.Intn(len(alertFuncs))]
			default:
				o.Val = uint16(r.Intn(1 << 16))
			}
		case opSetInterval:
			o.N = 1 + r.Intn(36) // 1 and 36 ms are rejected
		case opFaults:
			o.N = r.Intn(4)
		}
		return o
	},
	Describe: op.String,
}, 1, 50)

var programs = check.Gen[program]{
	Generate: func(r *rand.Rand, size int) program {
		return program{
			Seed:  r.Int63(),
			Amps:  -5 + 50*r.Float64(), // reaches both shunt clamps
			Volts: -0.5 + 45*r.Float64(),
			Noisy: r.Intn(4) != 0,
			Stale: []float64{0, 0.2, 0.9}[r.Intn(3)],
			Flip:  []float64{0, 0.3, 1}[r.Intn(3)],
			Ops:   ops.Generate(r, size),
		}
	},
	Shrink: func(p program) []program {
		var out []program
		for _, cand := range ops.Shrink(p.Ops) {
			q := p
			q.Ops = cand
			out = append(out, q)
		}
		return out
	},
	Describe: func(p program) string {
		return fmt.Sprintf("seed=%d amps=%.3f volts=%.3f noisy=%v stale=%v flip=%v ops=%s",
			p.Seed, p.Amps, p.Volts, p.Noisy, p.Stale, p.Flip, ops.Describe(p.Ops))
	},
}

// twin is one device with the injector its streams come from and, for
// the deferred twin, the clock that steps it.
type twin struct {
	dev   *ina226.Device
	clock *ina226.Clock
	inj   *faults.Injector
	now   time.Duration
}

const twinLabel = "ina226_u78"

func newTwin(p program, deferred bool) (*twin, error) {
	eng, err := sim.NewEngine(time.Millisecond, p.Seed)
	if err != nil {
		return nil, err
	}
	probeRng := eng.Stream("misc/" + twinLabel)
	upRng := eng.Stream("upstream/" + twinLabel)
	amps, volts := p.Amps, p.Volts
	// The upstream's state depends on the absolute tick and on its own
	// stream, so a replay must step it at each tick's own now.
	var drift float64
	cfg := ina226.Config{
		Label:      twinLabel,
		ShuntOhms:  0.002,
		CurrentLSB: 1e-3,
		Probe: ina226.Probe{
			CurrentAmps: func() float64 { return amps + drift + probeRng.NormFloat64()*0.001 },
			BusVolts:    func() float64 { return volts },
			Upstream: sim.StepFunc(func(now, dt time.Duration) {
				drift = 0.05*float64(now/time.Millisecond%7) + upRng.NormFloat64()*0.002
			}),
		},
		Rand: eng.Stream("ina226/" + twinLabel),
	}
	if p.Noisy {
		cfg.NoiseShuntVolts, cfg.NoiseBusVolts = 2e-6, 50e-6
	}
	dev, err := ina226.New(cfg)
	if err != nil {
		return nil, err
	}
	tw := &twin{dev: dev, inj: faults.New(faults.Profile{StaleRate: p.Stale, BitFlipRate: p.Flip}, eng)}
	if deferred {
		tw.clock = ina226.NewClock()
		tw.clock.Add(dev)
	}
	return tw, nil
}

// apply runs o on the twin and renders its result.
func (tw *twin) apply(o op) string {
	d := tw.dev
	switch o.Kind {
	case opTick:
		var step sim.Steppable = d
		if tw.clock != nil {
			step = tw.clock
		}
		for range o.N {
			step.Step(tw.now, o.Dt)
			tw.now += o.Dt
		}
		return ""
	case opRead:
		return fmt.Sprintf("%+v", d.Read())
	case opReg:
		return fmt.Sprint([]func() int32{d.RegShunt, d.RegBus, d.RegCurrent, d.RegPower}[o.N]())
	case opReadRegister:
		v, err := d.ReadRegister(o.Reg)
		return fmt.Sprint(v, err)
	case opWriteRegister:
		return fmt.Sprint(d.WriteRegister(o.Reg, o.Val))
	case opSetInterval:
		return fmt.Sprint(d.SetUpdateInterval(time.Duration(o.N)*time.Millisecond), d.UpdateInterval())
	case opAlert:
		return fmt.Sprint(d.Alert())
	case opFaults:
		// A re-installed hook continues its stream: the injector's
		// engine caches named streams.
		h := tw.inj.SensorFaults(twinLabel)
		if o.N&1 == 0 {
			h.SkipLatch = nil
		}
		if o.N&2 == 0 {
			h.FlipLatch = nil
		}
		d.SetFaults(h)
		return ""
	default: // opSnapshot
		return tw.snapshot()
	}
}

// snapshot renders every observable of the device.
func (tw *twin) snapshot() string {
	d := tw.dev
	var b strings.Builder
	fmt.Fprintf(&b, "%+v alert=%v", d.Read(), d.Alert())
	for _, r := range allRegisters {
		v, err := d.ReadRegister(r)
		fmt.Fprintf(&b, " %#x=%#04x/%v", uint8(r), v, err)
	}
	fmt.Fprintf(&b, " raw=%d,%d,%d,%d", d.RegShunt(), d.RegBus(), d.RegCurrent(), d.RegPower())
	return b.String()
}

var watched = []*obs.Counter{
	obs.C("ina226.conversions"),
	obs.C("ina226.register_reads"),
	obs.C("faults.injected.stale_latch"),
	obs.C("faults.injected.bitflip"),
}

// counted runs f and returns how far each watched counter moved.
func counted(f func()) [4]int64 {
	var before, delta [4]int64
	for i, c := range watched {
		before[i] = c.Value()
	}
	f()
	for i, c := range watched {
		delta[i] = c.Value() - before[i]
	}
	return delta
}

// deferredMatchesEager is the property; unsynced, when non-nil, picks
// the ops whose accessor runs on the deferred device with its sync()
// removed (the mutant).
func deferredMatchesEager(unsynced func(op) bool) func(*check.T, program) {
	return deferredMutant(unsynced, ina226.Unsynced)
}

// deferredMutant is the property with the ops that target picks run on
// the deferred device under mutant.
func deferredMutant(target func(op) bool, mutant func(*ina226.Device, func())) func(*check.T, program) {
	return func(c *check.T, p program) {
		eager, err := newTwin(p, false)
		if err != nil {
			c.Fatalf("eager twin: %v", err)
		}
		deferred, err := newTwin(p, true)
		if err != nil {
			c.Fatalf("deferred twin: %v", err)
		}
		var flips int64
		for i, o := range p.Ops {
			var want, got string
			wantDelta := counted(func() { want = eager.apply(o) })
			gotDelta := counted(func() {
				if target != nil && target(o) {
					mutant(deferred.dev, func() { got = deferred.apply(o) })
					return
				}
				got = deferred.apply(o)
			})
			if got != want {
				c.Fatalf("op %d %v: deferred %q, eager %q", i, o, got, want)
			}
			if gotDelta != wantDelta {
				c.Fatalf("op %d %v: counter deltas deferred %v, eager %v", i, o, gotDelta, wantDelta)
			}
			if g, w := deferred.dev.Updates(), eager.dev.Updates(); g != w {
				c.Fatalf("op %d %v: updates deferred %d, eager %d", i, o, g, w)
			}
			flips += wantDelta[3]
		}
		if got, want := deferred.snapshot(), eager.snapshot(); got != want {
			c.Fatalf("final state: deferred %s, eager %s", got, want)
		}
		c.Classify(eager.dev.Updates() > 0, "latched")
		c.Classify(flips > 0, "bitflip")
	}
}

func TestPropDeferredMatchesEager(t *testing.T) {
	check.Forall(t, programs, deferredMatchesEager(nil))
}

// TestMutantDeferredMissingSync deletes sync() from one accessor at a
// time — an observer (RegCurrent) and one that changes what the replay
// depends on (WriteRegister) — and requires the differential property
// to fail.
func TestMutantDeferredMissingSync(t *testing.T) {
	for _, tc := range []struct {
		name   string
		target func(op) bool
	}{
		{"RegCurrent", func(o op) bool { return o.Kind == opReg && o.N == 2 }},
		{"WriteRegister", func(o op) bool { return o.Kind == opWriteRegister }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := check.Run(t.Name(), programs, deferredMatchesEager(tc.target), check.Iters(200))
			if rep.ConfigErr != "" {
				t.Fatal(rep.ConfigErr)
			}
			if !rep.Failed {
				t.Fatalf("dropping sync() from %s went unnoticed in %d programs", tc.name, rep.Iters)
			}
			t.Logf("caught at program %d: %s", rep.FailIter, rep.Logs)
		})
	}
}

// TestMutantDeferredReplayLate steps the probe's upstream one tick late
// in the replay, as a sync that read its clock after advancing it
// would, and requires the differential property to fail.
func TestMutantDeferredReplayLate(t *testing.T) {
	syncs := func(o op) bool { return o.Kind != opTick }
	rep := check.Run(t.Name(), programs, deferredMutant(syncs, ina226.ReplayLate), check.Iters(200))
	if rep.ConfigErr != "" {
		t.Fatal(rep.ConfigErr)
	}
	if !rep.Failed {
		t.Fatalf("a late replay clock went unnoticed in %d programs", rep.Iters)
	}
	t.Logf("caught at program %d: %s", rep.FailIter, rep.Logs)
}
