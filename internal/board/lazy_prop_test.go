package board

// Differential suite for the lazy PS chains and the latch clock: a
// board from Wire, whose sensors are on one ina226.Clock and whose
// three PS chains (background load, rail, regulator) are stepped by
// their deferred sensors, and an eager twin that wireEager builds from
// the same parts and stream names, registered with the engine in the
// order Wire used before the chains went lazy, every sensor an eager
// engine part of its own. Both run the same random program of ticks,
// utilization changes (between ticks, and from a fabric circuit during
// the tick, as the DPU makes them), hwmon reads (some aimed at, just
// after or just before a sensor's latch tick), interval changes,
// configuration writes with and without the reset bit, Undefer of a
// misc-rail sensor mid-window, rail and regulator accesses under one
// fault preset. After
// every op the op's result, every sensor's Updates() and the deltas of
// the sensor, fault and sysfs counters must agree; the registers are
// compared at snapshot ops and at the end, since reading them syncs
// every chain.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/ina226"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sysfs"
)

// wireEager is Wire with every PS chain registered with the engine and
// every sensor an eager engine part integrating on the tick, in Wire's
// former registration order: background loads, fabric, rails each
// followed by their regulator, sensors, hotplug.
func wireEager(spec Spec, cfg Config) (*SoC, error) {
	b, err := newSoC(spec, cfg)
	if err != nil {
		return nil, err
	}
	if err := b.wireFPGA(cfg); err != nil {
		return nil, err
	}
	defs := b.psRails()
	chains := make([]*psChain, len(defs))
	for i, def := range defs {
		if chains[i], err = b.newPSChain(def); err != nil {
			return nil, err
		}
		b.eng.MustRegister("os/"+string(def.id), chains[i].parts[0])
	}
	b.eng.MustRegister("fabric", b.fab)
	b.eng.MustRegister("rail/"+string(RailFPGA), b.rails[RailFPGA])
	b.eng.MustRegister("reg/"+string(RailFPGA), b.regs[RailFPGA])
	for i, def := range defs {
		b.eng.MustRegister("rail/"+string(def.id), chains[i].parts[1])
		b.eng.MustRegister("reg/"+string(def.id), chains[i].parts[2])
	}
	var sensors []*ina226.Device
	for _, sd := range sensitiveRails {
		rail := b.rails[sd.rail]
		probe := ina226.Probe{CurrentAmps: rail.Current, BusVolts: rail.Voltage}
		dev, err := b.newSensor(cfg, sd.label, sd.shunt, probe)
		if err != nil {
			return nil, err
		}
		sensors = append(sensors, dev)
	}
	misc, err := b.newMiscSensors(cfg)
	if err != nil {
		return nil, err
	}
	for _, dev := range append(sensors, misc...) {
		b.eng.MustRegister("ina226/"+dev.Label(), dev)
	}
	b.injectFaults(cfg)
	return b, nil
}

type lazyOpKind int

const (
	lazyTick lazyOpKind = iota
	lazySetUtil
	lazyRead
	lazyInterval
	lazyRail
	lazyDisturb
	lazyDrive
	lazyLatch
	lazyConfig
	lazyUndefer
	lazySnapshot
)

var lazyOpNames = [...]string{"tick", "setutil", "read", "interval", "rail", "disturb", "drive", "latch", "config", "undefer", "snapshot"}

// lazyOp is one step of a program. N is the tick count (lazyTick), the
// load (lazySetUtil: 0 CPU full, 1 CPU low, 2 DDR), the sensor index
// (lazyRead, lazyInterval, lazyLatch, lazyConfig, lazyUndefer), the
// rail index (lazyRail, lazyDisturb) or the circuit's period in ticks
// (lazyDrive, 0 stops it); M is the attribute (lazyRead), the interval
// in ms (lazyInterval), where the read lands (lazyLatch: 0 on the
// latch tick, 1 one tick after it, 2 one tick before the next) or the
// configuration register value (lazyConfig).
// A lazySetUtil with Same writes the present utilization back.
type lazyOp struct {
	Kind lazyOpKind
	N, M int
	X    float64
	Same bool
}

func (o lazyOp) String() string {
	switch o.Kind {
	case lazySetUtil:
		if o.Same {
			return fmt.Sprintf("setutil(%d,same)", o.N)
		}
		return fmt.Sprintf("setutil(%d,%.3f)", o.N, o.X)
	case lazyRead, lazyInterval, lazyLatch:
		return fmt.Sprintf("%s(%d,%d)", lazyOpNames[o.Kind], o.N, o.M)
	case lazyConfig:
		return fmt.Sprintf("config(%d,%#04x)", o.N, o.M)
	default:
		return fmt.Sprintf("%s(%d)", lazyOpNames[o.Kind], o.N)
	}
}

type lazyProgram struct {
	Seed   int64
	Preset string
	Ops    []lazyOp
}

// zcu102Sensors is the number of sensors a ZCU102 integrates.
const zcu102Sensors = 18

var (
	lazyRails  = []RailID{RailFPGA, RailCPUFull, RailCPULow, RailDDR}
	valueAttrs = []string{"curr1_input", "in1_input", "power1_input"}
	presets    = []string{"none", "stale-sensor", "hostile"}
)

var lazyOps = check.SliceOf(check.Gen[lazyOp]{
	Generate: func(r *rand.Rand, _ int) lazyOp {
		// Ticks are drawn as often as all other ops together, so
		// chains build up pending ticks spanning several latches.
		if r.Intn(2) == 0 {
			return lazyOp{Kind: lazyTick, N: 1 + r.Intn(300)}
		}
		o := lazyOp{Kind: lazyOpKind(1 + r.Intn(int(lazySnapshot)))}
		switch o.Kind {
		case lazySetUtil:
			o.N = r.Intn(3)
			o.Same = r.Intn(3) == 0
			o.X = -0.1 + 1.2*r.Float64() // reaches both clamps
		case lazyRead:
			o.N, o.M = r.Intn(zcu102Sensors), r.Intn(len(valueAttrs))
		case lazyInterval:
			o.N, o.M = r.Intn(zcu102Sensors), 1+r.Intn(36) // 1 and 36 ms are rejected
		case lazyRail, lazyDisturb:
			o.N = r.Intn(len(lazyRails))
		case lazyDrive:
			o.N = []int{0, 1, 1, 2, 5}[r.Intn(5)]
		case lazyLatch:
			o.N, o.M = r.Intn(zcu102Sensors), r.Intn(3)
		case lazyConfig:
			o.N, o.M = r.Intn(zcu102Sensors), r.Intn(1<<15)
			if r.Intn(3) == 0 {
				o.M |= 1 << 15 // reset
			}
		case lazyUndefer:
			o.N = len(sensitiveRails) + r.Intn(zcu102Sensors-len(sensitiveRails))
		}
		return o
	},
	Describe: lazyOp.String,
}, 1, 40)

var lazyPrograms = check.Gen[lazyProgram]{
	Generate: func(r *rand.Rand, size int) lazyProgram {
		return lazyProgram{
			Seed:   1 + r.Int63n(1<<20),
			Preset: presets[r.Intn(len(presets))],
			Ops:    lazyOps.Generate(r, size),
		}
	},
	Shrink: func(p lazyProgram) []lazyProgram {
		var out []lazyProgram
		for _, cand := range lazyOps.Shrink(p.Ops) {
			q := p
			q.Ops = cand
			out = append(out, q)
		}
		return out
	},
	Describe: func(p lazyProgram) string {
		return fmt.Sprintf("seed=%d preset=%s ops=%s", p.Seed, p.Preset, lazyOps.Describe(p.Ops))
	},
}

// ripple is a regulator disturbance that depends on the absolute tick
// it is called for, so a chain stepped with the wrong now shows it.
func ripple(now time.Duration) float64 { return 2e-3 * float64(now/Step%5) }

// utilCircuit is a fabric circuit that moves every PS utilization once
// per period ticks from inside the fabric's step, before the tick's
// sensors run, as the DPU engine does. It draws no current.
type utilCircuit struct {
	loads  []*UtilizationSource
	period int
	k      int
}

func (d *utilCircuit) CircuitName() string           { return "util-circuit" }
func (d *utilCircuit) Utilization() fabric.Resources { return fabric.Resources{} }
func (d *utilCircuit) ActiveElements() float64       { return 0 }
func (d *utilCircuit) Step(now, dt time.Duration) {
	d.k++
	if d.period == 0 || d.k%d.period != 0 {
		return
	}
	for j, u := range d.loads {
		u.SetUtil(float64(d.k*(j+3)%11) / 10)
	}
}

// newUtilCircuit places a stopped utilCircuit on b's fabric.
func newUtilCircuit(b *SoC) (*utilCircuit, error) {
	d := &utilCircuit{loads: []*UtilizationSource{b.CPUFull(), b.CPULow(), b.DDR()}}
	return d, b.Fabric().Place(d, b.Fabric().SpreadEvenly())
}

// aimAtLatch ticks the eager twin b until sensor label latches, or for
// at most a second, then as far as o.M asks (see lazyOp), and returns
// how many ticks it ran.
func aimAtLatch(b *SoC, label string, o lazyOp) int {
	d, _ := b.Sensor(label)
	eng, updates, n := b.Engine(), d.Updates(), 0
	for d.Updates() == updates && n < int(time.Second/Step) {
		eng.Tick()
		n++
	}
	extra := 0
	switch o.M {
	case 1:
		extra = 1
	case 2:
		extra = int((d.UpdateInterval()+Step-1)/Step) - 1
	}
	eng.Run(time.Duration(extra) * Step)
	return n + extra
}

// lazyApply runs o on b, whose fabric carries d, and renders its
// result. ticks is a lazyLatch op's tick count (aimAtLatch), which the
// eager twin has already run.
func lazyApply(b *SoC, d *utilCircuit, labels []string, o lazyOp, ticks int) string {
	switch o.Kind {
	case lazyTick:
		b.Run(time.Duration(o.N) * Step)
		return ""
	case lazyLatch:
		if b.clock != nil {
			b.Run(time.Duration(ticks) * Step)
		}
		return lazyApply(b, d, labels, lazyOp{Kind: lazyRead, N: o.N}, 0)
	case lazyConfig:
		s, _ := b.Sensor(labels[o.N])
		return fmt.Sprint(s.WriteRegister(ina226.RegConfig, uint16(o.M)), s.UpdateInterval())
	case lazyUndefer:
		s, _ := b.Sensor(labels[o.N])
		s.Undefer()
		return ""
	case lazySetUtil:
		u := []*UtilizationSource{b.CPUFull(), b.CPULow(), b.DDR()}[o.N]
		x := o.X
		if o.Same {
			x = u.Util()
		}
		u.SetUtil(x)
		return ""
	case lazyRead:
		e, _ := b.Hwmon().ByLabel(labels[o.N])
		s, err := b.Sysfs().ReadFile(sysfs.Nobody, e.Attr(valueAttrs[o.M]))
		return fmt.Sprintf("%q %v", s, err)
	case lazyInterval:
		d, _ := b.Sensor(labels[o.N])
		return fmt.Sprint(d.SetUpdateInterval(time.Duration(o.M)*time.Millisecond), d.UpdateInterval())
	case lazyRail:
		r, err := b.Rail(lazyRails[o.N])
		return fmt.Sprint(r.Current(), r.Voltage(), r.Power(), err)
	case lazyDisturb:
		reg, err := b.Regulator(lazyRails[o.N])
		reg.SetDisturbance(ripple)
		return fmt.Sprint(reg.RawDrop(), err)
	case lazyDrive:
		d.period = o.N
		return ""
	default: // lazySnapshot
		return lazySnapshotOf(b, labels)
	}
}

// lazySnapshotOf renders every sensor's registers and readings.
func lazySnapshotOf(b *SoC, labels []string) string {
	var sb strings.Builder
	for _, l := range labels {
		d, _ := b.Sensor(l)
		fmt.Fprintf(&sb, "%s %+v alert=%v raw=%d,%d,%d,%d\n", l, d.Read(), d.Alert(),
			d.RegShunt(), d.RegBus(), d.RegCurrent(), d.RegPower())
	}
	return sb.String()
}

// updatesOf renders every sensor's latch count, which does not sync.
func updatesOf(b *SoC, labels []string) string {
	var sb strings.Builder
	for _, l := range labels {
		d, _ := b.Sensor(l)
		fmt.Fprintf(&sb, "%d ", d.Updates())
	}
	return sb.String()
}

var lazyWatched = []*obs.Counter{
	obs.C("ina226.conversions"),
	obs.C("ina226.register_reads"),
	obs.C("faults.injected.sysfs_eagain"),
	obs.C("faults.injected.sysfs_eio"),
	obs.C("faults.injected.stale_latch"),
	obs.C("faults.injected.bitflip"),
	obs.C("faults.injected.hotplug"),
	obs.C("faults.injected.reg_transient"),
	obs.C("sysfs.reads"),
	obs.C("sysfs.read_faults"),
}

// lazyCounted runs f and returns how far each watched counter moved.
func lazyCounted(f func()) []int64 {
	delta := make([]int64, len(lazyWatched))
	for i, c := range lazyWatched {
		delta[i] = -c.Value()
	}
	f()
	for i, c := range lazyWatched {
		delta[i] += c.Value()
	}
	return delta
}

// lazyChainMatchesEager is the property; mutate, when non-nil, breaks
// the lazy board after wiring (the mutants).
func lazyChainMatchesEager(mutate func(*SoC)) func(*check.T, lazyProgram) {
	return func(c *check.T, p lazyProgram) {
		spec, _ := Lookup("ZCU102")
		prof, err := faults.Preset(p.Preset)
		if err != nil {
			c.Fatalf("preset: %v", err)
		}
		cfg := Config{Seed: p.Seed}
		if prof.Enabled() {
			cfg.Faults = &prof
		}
		eager, err := wireEager(spec, cfg)
		if err != nil {
			c.Fatalf("eager twin: %v", err)
		}
		lazy, err := Wire(spec, cfg)
		if err != nil {
			c.Fatalf("Wire: %v", err)
		}
		if mutate != nil {
			mutate(lazy)
		}
		eagerCircuit, err := newUtilCircuit(eager)
		if err != nil {
			c.Fatalf("eager circuit: %v", err)
		}
		lazyCircuit, err := newUtilCircuit(lazy)
		if err != nil {
			c.Fatalf("lazy circuit: %v", err)
		}
		var labels []string
		for _, e := range lazy.Hwmon().Entries() {
			labels = append(labels, e.Label)
		}
		for i, o := range p.Ops {
			var want, got string
			var ticks int
			wantDelta := lazyCounted(func() {
				if o.Kind == lazyLatch {
					ticks = aimAtLatch(eager, labels[o.N], o)
				}
				want = lazyApply(eager, eagerCircuit, labels, o, ticks)
			})
			gotDelta := lazyCounted(func() { got = lazyApply(lazy, lazyCircuit, labels, o, ticks) })
			if got != want {
				c.Fatalf("op %d %v: lazy %q, eager %q", i, o, got, want)
			}
			if g, w := fmt.Sprint(gotDelta), fmt.Sprint(wantDelta); g != w {
				c.Fatalf("op %d %v: counter deltas lazy %s, eager %s", i, o, g, w)
			}
			if g, w := updatesOf(lazy, labels), updatesOf(eager, labels); g != w {
				c.Fatalf("op %d %v: updates lazy %s, eager %s", i, o, g, w)
			}
		}
		if got, want := lazySnapshotOf(lazy, labels), lazySnapshotOf(eager, labels); got != want {
			c.Fatalf("final state:\nlazy\n%s\neager\n%s", got, want)
		}
		c.Classify(p.Preset != "none", "faulted")
		eagerChains := 0
		for _, ch := range lazy.chains {
			if ch.eager {
				eagerChains++
			}
		}
		c.Classify(eagerChains == 0, "all lazy")
		c.Classify(eagerChains == len(lazy.chains), "all eager")
	}
}

func TestPropLazyChainMatchesEager(t *testing.T) {
	check.Forall(t, lazyPrograms, lazyChainMatchesEager(nil))
}

// TestMutantLazyChain breaks the lazy chains one way at a time and
// requires the differential property to fail: SetUtil without the
// sync, a chain that steps its regulator before its rail, and a chain
// stepped with the next tick's now (seen by a disturbance hook).
func TestMutantLazyChain(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(c *psChain)
	}{
		{"SetUtilWithoutSync", func(c *psChain) { c.load.sync = nil }},
		{"RegulatorBeforeRail", func(c *psChain) { c.parts[1], c.parts[2] = c.parts[2], c.parts[1] }},
		{"WrongNow", func(c *psChain) {
			reg := c.parts[2]
			c.parts[2] = sim.StepFunc(func(now, dt time.Duration) { reg.Step(now+dt, dt) })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mutate := func(b *SoC) {
				for _, c := range b.chains {
					tc.mutate(c)
				}
			}
			rep := check.Run(t.Name(), lazyPrograms, lazyChainMatchesEager(mutate), check.Iters(200))
			if rep.ConfigErr != "" {
				t.Fatal(rep.ConfigErr)
			}
			if !rep.Failed {
				t.Fatalf("mutant %s went unnoticed in %d programs", tc.name, rep.Iters)
			}
			t.Logf("caught at program %d: %s", rep.FailIter, rep.Logs)
		})
	}
}
