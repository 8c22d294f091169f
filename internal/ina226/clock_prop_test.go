package ina226_test

// Differential suite for Clock: a board's worth of sensors on one latch
// clock against a twin whose sensors the engine steps one by one, each
// eager. Both sides are built from the same seed (same probe, noise,
// upstream and fault streams) under one fault preset, and run the same
// random program of ticks, reads aimed at, just before and just after
// a sensor's latch tick, input changes behind a Sync (as the board's
// utilization loads make them), interval changes, configuration writes
// with and without the reset bit, and Undefer mid-window, after which
// the caller steps the sensor's upstream (as the board does for a rail
// SoC.Rail hands out). After every op the op's result, every sensor's
// Updates() and the counter deltas must agree; registers are compared
// at snapshot ops and at the end.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/faults"
	"repro/internal/ina226"
	"repro/internal/sim"
)

type clockOpKind int

const (
	clockTick clockOpKind = iota
	clockLatch
	clockRead
	clockSetInput
	clockInterval
	clockConfig
	clockUndefer
	clockSnapshot
)

var clockOpNames = [...]string{"tick", "latch", "read", "setinput", "interval", "config", "undefer", "snapshot"}

// clockOp is one step of a program. N is the tick count (clockTick) or
// the sensor (every other op but clockSnapshot). M is the offset from
// the latch tick, -1, 0 or +1 (clockLatch), the accessor (clockRead),
// the interval in ms (clockInterval) or the register value
// (clockConfig); X is the new input level (clockSetInput).
type clockOp struct {
	Kind clockOpKind
	N, M int
	X    float64
}

func (o clockOp) String() string {
	switch o.Kind {
	case clockTick, clockUndefer, clockSnapshot:
		return fmt.Sprintf("%s(%d)", clockOpNames[o.Kind], o.N)
	case clockSetInput:
		return fmt.Sprintf("setinput(%d,%.3f)", o.N, o.X)
	case clockConfig:
		return fmt.Sprintf("config(%d,%#04x)", o.N, o.M)
	default:
		return fmt.Sprintf("%s(%d,%d)", clockOpNames[o.Kind], o.N, o.M)
	}
}

type clockProgram struct {
	Seed      int64
	Preset    string
	Dt        time.Duration
	Intervals []time.Duration // per sensor; 0 is the 35 ms default
	Ops       []clockOp
}

// clockLabels are the sensors of a clocked board. The third integrates
// on the tick from the start, like a board's FPGA sensor.
var clockLabels = []string{"ina226_u76", "ina226_u77", "ina226_u79", "ina226_u93", "ina226_u78"}

const clockEagerAtStart = 2

var clockOps = check.SliceOf(check.Gen[clockOp]{
	Generate: func(r *rand.Rand, _ int) clockOp {
		if r.Intn(3) == 0 {
			return clockOp{Kind: clockTick, N: 1 + r.Intn(150)}
		}
		o := clockOp{Kind: clockOpKind(1 + r.Intn(int(clockSnapshot))), N: r.Intn(len(clockLabels))}
		switch o.Kind {
		case clockLatch:
			o.M = r.Intn(3) - 1
		case clockRead:
			o.M = r.Intn(4)
		case clockSetInput:
			o.X = 5 * r.Float64()
		case clockInterval:
			o.M = 1 + r.Intn(36) // 1 and 36 ms are rejected
		case clockConfig:
			o.M = r.Intn(1 << 15)
			if r.Intn(3) == 0 {
				o.M |= 1 << 15 // reset
			}
		}
		return o
	},
	Describe: clockOp.String,
}, 1, 40)

var clockPresets = []string{"none", "stale-sensor", "hostile"}

var clockPrograms = check.Gen[clockProgram]{
	Generate: func(r *rand.Rand, size int) clockProgram {
		p := clockProgram{
			Seed:   r.Int63(),
			Preset: clockPresets[r.Intn(len(clockPresets))],
			Dt:     []time.Duration{500 * time.Microsecond, time.Millisecond, 3 * time.Millisecond}[r.Intn(3)],
			Ops:    clockOps.Generate(r, size),
		}
		for range clockLabels {
			p.Intervals = append(p.Intervals, []time.Duration{0, 0, 2 * time.Millisecond, 7 * time.Millisecond, 10 * time.Millisecond}[r.Intn(5)])
		}
		return p
	},
	Shrink: func(p clockProgram) []clockProgram {
		var out []clockProgram
		for _, cand := range clockOps.Shrink(p.Ops) {
			q := p
			q.Ops = cand
			out = append(out, q)
		}
		return out
	},
	Describe: func(p clockProgram) string {
		return fmt.Sprintf("seed=%d preset=%s dt=%v intervals=%v ops=%s",
			p.Seed, p.Preset, p.Dt, p.Intervals, clockOps.Describe(p.Ops))
	},
}

// clockMutant names one defect the clocked side carries; "" is none.
type clockMutant string

// clockBoard is one side of the differential: an engine, its sensors
// and, on the clocked side, their clock.
type clockBoard struct {
	eng       *sim.Engine
	clock     *ina226.Clock // nil on the engine-stepped twin
	mutant    clockMutant
	devs      []*ina226.Device
	levels    []float64
	upstreams []sim.Steppable
	gate      []sim.Steppable // upstreams handed back by Undefer
	eager     []bool
}

// newClockBoard builds one side. Each sensor's probe reads its input
// level, its own stream's noise and a drift its upstream steps per
// tick from the absolute tick and a stream of its own, so a replay
// must step it at each tick's own now.
func newClockBoard(p clockProgram, clocked bool, mutant clockMutant) (*clockBoard, error) {
	prof, err := faults.Preset(p.Preset)
	if err != nil {
		return nil, err
	}
	eng, err := sim.NewEngine(p.Dt, p.Seed)
	if err != nil {
		return nil, err
	}
	b := &clockBoard{eng: eng, mutant: mutant, eager: make([]bool, len(clockLabels))}
	eng.MustRegister("gate", sim.StepFunc(func(now, dt time.Duration) {
		for _, u := range b.gate {
			u.Step(now, dt)
		}
	}))
	inj := faults.New(prof, eng)
	for i, label := range clockLabels {
		probeRng, upRng := eng.Stream("misc/"+label), eng.Stream("upstream/"+label)
		b.levels = append(b.levels, 0.2*float64(i+1))
		var drift float64
		up := sim.StepFunc(func(now, dt time.Duration) {
			drift = 0.05*float64(now/dt%7) + upRng.NormFloat64()*0.002
		})
		i := i
		dev, err := ina226.New(ina226.Config{
			Label:          label,
			ShuntOhms:      0.005,
			CurrentLSB:     1e-3,
			UpdateInterval: p.Intervals[i],
			Probe: ina226.Probe{
				CurrentAmps: func() float64 { return b.levels[i] + drift + probeRng.NormFloat64()*0.001 },
				BusVolts:    func() float64 { return 0.85 + 0.1*float64(i) },
				Upstream:    up,
			},
			NoiseShuntVolts: 2e-6,
			NoiseBusVolts:   50e-6,
			Rand:            eng.Stream("ina226/" + label),
		})
		if err != nil {
			return nil, err
		}
		dev.SetFaults(inj.SensorFaults(label))
		b.devs = append(b.devs, dev)
		b.upstreams = append(b.upstreams, up)
	}
	if !clocked {
		for _, d := range b.devs {
			eng.MustRegister("ina226/"+d.Label(), d)
		}
	} else {
		b.clock = ina226.NewClock()
		var step sim.Steppable = b.clock
		if mutant == "LatchLate" {
			step = ina226.LatchLate(b.clock)
		}
		eng.MustRegister("ina226", step)
		for _, d := range b.devs {
			b.clock.Add(d)
		}
	}
	b.undefer(clockEagerAtStart)
	return b, nil
}

// undefer makes sensor i eager, once, and steps its upstream on the
// gate from then on.
func (b *clockBoard) undefer(i int) {
	if b.eager[i] {
		return
	}
	if b.clock != nil && b.mutant == "UndeferUnsettled" {
		ina226.UndeferUnsettled(b.devs[i])
	} else {
		b.devs[i].Undefer()
	}
	b.eager[i] = true
	b.gate = append(b.gate, b.upstreams[i])
}

// windowChange runs f, which changes sensor i's update window, under
// the NoReschedule mutant when the side carries it.
func (b *clockBoard) windowChange(i int, f func()) {
	if b.clock != nil && b.mutant == "NoReschedule" {
		ina226.NoReschedule(b.devs[i], f)
		return
	}
	f()
}

// apply runs o on the side and renders its result. ticks is the tick
// count of a clockLatch op, computed once on the engine-stepped twin.
func (b *clockBoard) apply(o clockOp, ticks int) string {
	var d *ina226.Device
	if o.Kind != clockTick && o.Kind != clockSnapshot {
		d = b.devs[o.N]
	}
	switch o.Kind {
	case clockTick:
		b.eng.Run(time.Duration(o.N) * b.eng.Dt())
		return ""
	case clockLatch:
		b.eng.Run(time.Duration(ticks) * b.eng.Dt())
		return fmt.Sprintf("%d %+v", ticks, d.Read())
	case clockRead:
		switch o.M {
		case 0:
			return fmt.Sprintf("%+v", d.Read())
		case 1:
			return fmt.Sprint(d.RegCurrent())
		case 2:
			v, err := d.ReadRegister(ina226.RegBusVoltage)
			return fmt.Sprint(v, err)
		default:
			return fmt.Sprint(d.Alert())
		}
	case clockSetInput:
		if b.clock != nil && b.mutant == "SyncLoadsTwice" {
			ina226.SyncLoadsTwice(d)
		} else {
			d.Sync()
		}
		b.levels[o.N] = o.X
		return ""
	case clockInterval:
		var err error
		b.windowChange(o.N, func() { err = d.SetUpdateInterval(time.Duration(o.M) * time.Millisecond) })
		return fmt.Sprint(err, d.UpdateInterval())
	case clockConfig:
		var err error
		b.windowChange(o.N, func() { err = d.WriteRegister(ina226.RegConfig, uint16(o.M)) })
		return fmt.Sprint(err, d.UpdateInterval())
	case clockUndefer:
		b.undefer(o.N)
		return ""
	default: // clockSnapshot
		return b.snapshot()
	}
}

// snapshot renders every sensor's observables.
func (b *clockBoard) snapshot() string {
	var sb strings.Builder
	for _, d := range b.devs {
		fmt.Fprintf(&sb, "%s %+v alert=%v raw=%d,%d,%d,%d\n", d.Label(), d.Read(), d.Alert(),
			d.RegShunt(), d.RegBus(), d.RegCurrent(), d.RegPower())
	}
	return sb.String()
}

// updates renders every sensor's latch count, which does not sync.
func (b *clockBoard) updates() string {
	var sb strings.Builder
	for _, d := range b.devs {
		fmt.Fprintf(&sb, "%d ", d.Updates())
	}
	return sb.String()
}

// clockMatchesEngine is the property with the clocked side carrying
// mutant.
func clockMatchesEngine(mutant clockMutant) func(*check.T, clockProgram) {
	return func(c *check.T, p clockProgram) {
		twin, err := newClockBoard(p, false, "")
		if err != nil {
			c.Fatalf("engine-stepped twin: %v", err)
		}
		clocked, err := newClockBoard(p, true, mutant)
		if err != nil {
			c.Fatalf("clocked board: %v", err)
		}
		var aimed int
		for i, o := range p.Ops {
			ticks := 0
			if o.Kind == clockLatch {
				ticks = max(0, ina226.TicksToLatch(twin.devs[o.N], p.Dt)+o.M)
				aimed++
			}
			var want, got string
			wantDelta := counted(func() { want = twin.apply(o, ticks) })
			gotDelta := counted(func() { got = clocked.apply(o, ticks) })
			if got != want {
				c.Fatalf("op %d %v: clocked %q, engine-stepped %q", i, o, got, want)
			}
			if gotDelta != wantDelta {
				c.Fatalf("op %d %v: counter deltas clocked %v, engine-stepped %v", i, o, gotDelta, wantDelta)
			}
			if g, w := clocked.updates(), twin.updates(); g != w {
				c.Fatalf("op %d %v: updates clocked %s, engine-stepped %s", i, o, g, w)
			}
		}
		if got, want := clocked.snapshot(), twin.snapshot(); got != want {
			c.Fatalf("final state:\nclocked\n%s\nengine-stepped\n%s", got, want)
		}
		c.Classify(p.Preset != "none", "faulted")
		c.Classify(aimed > 0, "aimed at a latch")
	}
}

func TestPropClockMatchesEngineStepped(t *testing.T) {
	check.Forall(t, clockPrograms, clockMatchesEngine(""))
}

// TestMutantClock gives the clocked side one defect at a time and
// requires the differential property to fail: a latch one tick late,
// a window change that does not move the next latch, an Undefer that
// does not carry the replay's window time over to the eager window,
// and a Sync that reads the pending ticks off the clock twice (so the
// replay is skipped).
func TestMutantClock(t *testing.T) {
	for _, m := range []clockMutant{"LatchLate", "NoReschedule", "UndeferUnsettled", "SyncLoadsTwice"} {
		t.Run(string(m), func(t *testing.T) {
			rep := check.Run(t.Name(), clockPrograms, clockMatchesEngine(m), check.Iters(200))
			if rep.ConfigErr != "" {
				t.Fatal(rep.ConfigErr)
			}
			if !rep.Failed {
				t.Fatalf("mutant %s went unnoticed in %d programs", m, rep.Iters)
			}
			t.Logf("caught at program %d: %s", rep.FailIter, rep.Logs)
		})
	}
}
