package board

import (
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/hwmon"
	"repro/internal/ina226"
	"repro/internal/pdn"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/sysfs"
)

// RailID names one of a board's dynamically modeled power rails.
type RailID string

// The four monitored rails of Table II.
const (
	// RailFPGA is VCCINT, supplying the PL's logic and DSP elements.
	RailFPGA RailID = "VCCINT"
	// RailCPUFull is VCCPSINTFP, the full-power APU domain.
	RailCPUFull RailID = "VCCPSINTFP"
	// RailCPULow is VCCPSINTLP, the low-power (PMU/RPU) domain.
	RailCPULow RailID = "VCCPSINTLP"
	// RailDDR is VCCPSDDR, the DDR memory rail.
	RailDDR RailID = "VCCPSDDR"
)

// Board designators of the four sensitive sensors (Table II). The
// designators are the ZCU102's; the other catalog boards expose their
// equivalent sensors under the same labels so attack code can address
// them uniformly.
const (
	SensorCPUFull = "ina226_u76"
	SensorCPULow  = "ina226_u77"
	SensorFPGA    = "ina226_u79"
	SensorDDR     = "ina226_u93"
)

// Electrical calibration of the simulated boards. The constants are
// chosen so the simulated channels reproduce the paper's Fig. 2 shape:
// one power-virus group (1 k instances) moves the FPGA current by about
// 40 mA (≈40 of the 1 mA hwmon LSBs), the regulated VCCINT stays inside
// the family's stabilizer band with only a few 1.25 mV LSBs of
// load-dependent droop, and power moves by 1–2 of its 25 mW LSBs per
// group.
const (
	// CapPerElement: 1.57e-13 F × 300 MHz × 0.85 V ≈ 40 µA per active
	// element, i.e. 40 mA per 1 k virus instances.
	CapPerElement = 1.57e-13

	fpgaStaticAmps  = 0.55
	fpgaNoiseAmps   = 0.008
	fpgaShuntOhms   = 0.002
	fpgaLoadLineOhm = 0.0008

	cpuFullIdleAmps    = 0.35
	cpuFullDynamicAmps = 1.80
	cpuLowIdleAmps     = 0.15
	cpuLowDynamicAmps  = 0.35
	ddrIdleAmps        = 0.40
	ddrDynamicAmps     = 1.60
	psNoiseAmps        = 0.005
	psShuntOhms        = 0.005

	currentLSBAmps = 1e-3 // the boards' 1 mA current resolution

	// a72PowerScale inflates the CPU-domain currents on Versal boards,
	// whose Cortex-A72 cores draw more than the US+ boards' A53s.
	a72PowerScale = 1.4
)

// Config configures a simulated board.
type Config struct {
	// Seed is the root seed for every noise stream. Defaults to 1.
	Seed int64
	// UpdateInterval is the initial hwmon update interval of every
	// sensor. Zero means the 35 ms board default.
	UpdateInterval time.Duration
	// DisableStabilizer runs the FPGA rail unregulated (ablation).
	DisableStabilizer bool
	// Faults, when non-nil and enabled, injects the profile's fault mix
	// into the whole sensor stack: transient sysfs read errors, INA226
	// stale latches and bit flips, regulator transients, and hwmon
	// hotplug renumbering. All fault randomness comes from the board
	// engine's named streams, so faulted runs stay deterministic.
	Faults *faults.Profile
}

// Step is the board simulation tick: 500 µs resolves the 2 ms minimum
// INA226 update interval while keeping multi-second experiments fast.
const Step = 500 * time.Microsecond

// miscRail describes an additional monitored rail that carries no
// victim activity in the experiments.
type miscRail struct {
	label string
	rail  string
	volts float64
	amps  float64
}

// zcu102MiscRails lists the remaining ZCU102 INA226 designators
// (UG1182), bringing that board's sensor total to the 18 of Table I.
var zcu102MiscRails = []miscRail{
	{"ina226_u78", "VCCPSAUX", 1.80, 0.10},
	{"ina226_u87", "VCCPSPLL", 1.20, 0.05},
	{"ina226_u85", "MGTRAVCC", 0.85, 0.08},
	{"ina226_u86", "MGTRAVTT", 1.80, 0.06},
	{"ina226_u88", "VCCOPS", 3.30, 0.12},
	{"ina226_u15", "VCCOPS3", 3.30, 0.10},
	{"ina226_u92", "VCCPSDDRPLL", 1.80, 0.03},
	{"ina226_u81", "VCCBRAM", 0.85, 0.07},
	{"ina226_u80", "VCCAUX", 1.80, 0.15},
	{"ina226_u84", "VCC1V2", 1.20, 0.20},
	{"ina226_u16", "VCC3V3", 3.30, 0.25},
	{"ina226_u65", "VADJ_FMC", 1.80, 0.05},
	{"ina226_u74", "MGTAVCC", 0.90, 0.09},
	{"ina226_u75", "MGTAVTT", 1.20, 0.11},
}

// miscRailsFor returns spec.INASensors-4 misc rails for a board: the
// ZCU102 gets its documented designators; other boards get generated
// ones (their user guides use different numbering).
func miscRailsFor(spec Spec) []miscRail {
	n := spec.INASensors - 4
	if n < 0 {
		n = 0
	}
	if spec.Name == "ZCU102" && n <= len(zcu102MiscRails) {
		return zcu102MiscRails[:n]
	}
	out := make([]miscRail, n)
	for i := range out {
		src := zcu102MiscRails[i%len(zcu102MiscRails)]
		out[i] = miscRail{
			label: fmt.Sprintf("ina226_u%d", 100+i),
			rail:  src.rail,
			volts: src.volts,
			amps:  src.amps,
		}
	}
	return out
}

// deviceFor returns the FPGA part model for a board's family: the
// ZCU102's XCZU9EG for Zynq UltraScale+, a Versal AI Core class part
// otherwise.
func deviceFor(spec Spec) fabric.Device {
	if spec.Family == FamilyVersal {
		return fabric.Device{
			Name:    "XCVC1902",
			Total:   fabric.Resources{LUTs: 899840, FFs: 1799680, DSPs: 1968, BRAMKb: 130000},
			ClockHz: 300e6,
			Rows:    8,
			Cols:    6,
		}
	}
	return fabric.ZU9EG()
}

// SoC is a simulated ARM-FPGA evaluation board: engine, fabric, rails,
// regulators, INA226 sensors per Table I, and a hwmon-populated sysfs
// tree.
type SoC struct {
	spec Spec

	eng  *sim.Engine
	tree *sysfs.FS
	hw   *hwmon.Subsystem
	fab  *fabric.Fabric

	rails  map[RailID]*power.Rail
	regs   map[RailID]*pdn.Regulator
	chains map[RailID]*psChain
	gate   psGate

	cpuFull *UtilizationSource
	cpuLow  *UtilizationSource
	ddr     *UtilizationSource

	sensors map[string]*ina226.Device
	clock   *ina226.Clock

	injector *faults.Injector // nil unless Config.Faults enabled
}

// psChain is one PS rail's upstream: its OS background load, the rail
// and the rail's regulator. The engine does not step a lazy chain; the
// rail's INA226 does (ina226.Probe.Upstream), deferred on the board's
// latch clock like the misc-rail sensors, so the chain runs only when
// something observes the sensor and then replays every pending tick.
// Nothing else reads the chain, and its one input, the utilization,
// syncs it before changing, so the replay is bit-identical to stepping
// it on the tick.
// A chain whose rail or regulator is handed out (SoC.Rail,
// SoC.Regulator), whose regulator carries a fault disturbance that
// counts on the tick, or that is synced on nearly every tick anyway,
// goes eager: the board's psGate steps it on the tick from then on.
type psChain struct {
	parts  [3]sim.Steppable // background load, rail, regulator: tick order
	load   *UtilizationSource
	sensor *ina226.Device
	gate   *psGate
	eager  bool
	busy   int // utilization changes in a row that found at most one tick pending
}

// eagerAfter is how many utilization changes in a row, each finding at
// most one pending tick, make a chain eager: replaying one tick at a
// time costs more than stepping the chain on the tick (the DPU moves
// the utilization on most ticks).
const eagerAfter = 4

// Step advances the chain by one tick.
func (c *psChain) Step(now, dt time.Duration) {
	for i := range c.parts {
		c.parts[i].Step(now, dt)
	}
}

// sync brings the chain up to date before its utilization changes.
func (c *psChain) sync() {
	if c.sensor.Sync() > 1 {
		c.busy = 0
		return
	}
	if c.busy++; c.busy == eagerAfter {
		c.makeEager()
	}
}

// makeEager brings the chain up to date and has the gate step it on
// every tick from then on.
func (c *psChain) makeEager() {
	if c.eager {
		return
	}
	c.sensor.Undefer()
	c.eager, c.load.sync = true, nil
	*c.gate = append(*c.gate, c)
}

// psGate steps the eager PS chains. The engine steps it after the
// fabric, so a chain sees the utilization the fabric's victims set on
// the same tick, and before the sensors.
type psGate []*psChain

// Step advances every eager chain by one tick, all background loads
// first: independent work the CPU can overlap, which measured faster
// than stepping each chain whole.
func (g *psGate) Step(now, dt time.Duration) {
	for _, c := range *g {
		c.parts[0].Step(now, dt)
	}
	for _, c := range *g {
		c.parts[1].Step(now, dt)
		c.parts[2].Step(now, dt)
	}
}

// psRail describes one PS supply: its rail and stabilizer band, the
// utilization load's idle and full-scale currents, the board's load
// slot, and the OS background activity on the rail (mean, diffusion,
// reversion rate and max of an Ornstein-Uhlenbeck process).
type psRail struct {
	id            RailID
	volts         float64
	band          pdn.Band
	idle, dynamic float64
	load          **UtilizationSource
	background    [4]float64
}

// psRails returns the board's three PS supplies: the utilization-driven
// CPU domains, scaled to the CPU model, and the DDR rail. The OS
// background activity is calibrated so the CPU channels are
// informative but noisy (the paper's 83.7%/55.7% CPU fingerprinting
// accuracies) while DDR stays comparatively clean.
func (b *SoC) psRails() []psRail {
	cpuScale := 1.0
	if b.spec.CPUModel == "Cortex-A72" {
		cpuScale = a72PowerScale
	}
	return []psRail{
		{RailCPUFull, 0.85, BandZynqUltraScale, cpuFullIdleAmps * cpuScale, cpuFullDynamicAmps * cpuScale,
			&b.cpuFull, [4]float64{0.10, 0.30, 20, 0.8}},
		{RailCPULow, 0.85, BandZynqUltraScale, cpuLowIdleAmps * cpuScale, cpuLowDynamicAmps * cpuScale,
			&b.cpuLow, [4]float64{0.05, 0.04, 20, 0.4}},
		{RailDDR, 1.20, pdn.Band{Min: 1.14, Max: 1.26}, ddrIdleAmps, ddrDynamicAmps,
			&b.ddr, [4]float64{0.08, 0.06, 20, 0.6}},
	}
}

// sensitiveRails wires the four Table II sensors to their rails.
var sensitiveRails = []struct {
	label string
	rail  RailID
	shunt float64
}{
	{SensorCPUFull, RailCPUFull, psShuntOhms},
	{SensorCPULow, RailCPULow, psShuntOhms},
	{SensorFPGA, RailFPGA, fpgaShuntOhms},
	{SensorDDR, RailDDR, psShuntOhms},
}

// ZCU102 is an alias for the generic SoC type: the ZCU102 is the
// paper's experimental machine and the default board everywhere.
type ZCU102 = SoC

// NewZCU102 builds and wires the paper's evaluation board.
func NewZCU102(cfg Config) (*SoC, error) {
	spec, _ := Lookup("ZCU102")
	return Wire(spec, cfg)
}

// Wire assembles a board from a catalog spec: the family's FPGA device
// and stabilizer band, CPU domains scaled to the CPU model, a DDR rail,
// and the spec's full complement of INA226 sensors.
func Wire(spec Spec, cfg Config) (*SoC, error) {
	b, err := newSoC(spec, cfg)
	if err != nil {
		return nil, err
	}
	if err := b.wireFPGA(cfg); err != nil {
		return nil, err
	}
	for _, def := range b.psRails() {
		c, err := b.newPSChain(def)
		if err != nil {
			return nil, err
		}
		b.chains[def.id] = c
	}

	// --- Engine wiring: the fabric feeds the FPGA rail, the rail its
	// regulator, and the sensors' latch clock runs last so each tick
	// they see settled values. A lazy PS chain is stepped by its
	// sensor, an eager one by the gate. ---
	b.eng.MustRegister("fabric", b.fab)
	b.eng.MustRegister("rail/"+string(RailFPGA), b.rails[RailFPGA])
	b.eng.MustRegister("reg/"+string(RailFPGA), b.regs[RailFPGA])
	b.eng.MustRegister("ps", &b.gate)
	b.clock = ina226.NewClock()
	b.eng.MustRegister("ina226", b.clock)

	// --- Sensors: the four sensitive ones (Table II)... The FPGA
	// sensor reads the engine-stepped VCCINT, so it integrates on the
	// tick; the PS ones are deferred with their chains. ---
	for _, sd := range sensitiveRails {
		rail := b.rails[sd.rail]
		probe := ina226.Probe{CurrentAmps: rail.Current, BusVolts: rail.Voltage}
		c := b.chains[sd.rail]
		if c != nil {
			probe.Upstream = c
		}
		dev, err := b.newSensor(cfg, sd.label, sd.shunt, probe)
		if err != nil {
			return nil, err
		}
		b.clock.Add(dev)
		if c != nil {
			c.sensor, c.load.sync = dev, c.sync
		} else {
			dev.Undefer()
		}
	}
	// --- ...and the board's remaining rails, all deferred. ---
	misc, err := b.newMiscSensors(cfg)
	if err != nil {
		return nil, err
	}
	for _, dev := range misc {
		b.clock.Add(dev)
	}
	b.injectFaults(cfg)
	return b, nil
}

// newSoC validates spec and returns an empty board: engine, sysfs tree
// and hwmon class.
func newSoC(spec Spec, cfg Config) (*SoC, error) {
	if spec.Name == "" || spec.INASensors < 4 {
		return nil, fmt.Errorf("board: spec %q needs a name and >= 4 sensors", spec.Name)
	}
	if spec.VoltageBand.Min <= 0 || spec.VoltageBand.Min >= spec.VoltageBand.Max {
		return nil, fmt.Errorf("board: spec %q has an invalid voltage band", spec.Name)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	eng, err := sim.NewEngine(Step, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tree := sysfs.New()
	tree.SetTally(eng.Tally()) // the engine's runs publish the reads made inside them
	hw, err := hwmon.New(tree)
	if err != nil {
		return nil, err
	}
	return &SoC{
		spec:    spec,
		eng:     eng,
		tree:    tree,
		hw:      hw,
		rails:   make(map[RailID]*power.Rail),
		regs:    make(map[RailID]*pdn.Regulator),
		chains:  make(map[RailID]*psChain),
		sensors: make(map[string]*ina226.Device),
	}, nil
}

// wireFPGA builds the fabric and the stabilized VCCINT rail that feeds
// it, unregistered. The rail runs at the family-typical nominal (0.85 V
// on Zynq UltraScale+, 0.80 V on Versal), inside the stabilizer band.
func (b *SoC) wireFPGA(cfg Config) error {
	band := b.spec.VoltageBand
	nominal := 0.85
	if b.spec.Family == FamilyVersal {
		nominal = 0.80
	}
	if !band.Contains(nominal) {
		nominal = (band.Min + band.Max) / 2
	}
	rail, err := power.NewRail(power.RailConfig{
		Name: string(RailFPGA), NominalVoltage: nominal,
		StaticCurrent: fpgaStaticAmps, NoiseSigma: fpgaNoiseAmps,
		Rand: b.eng.Stream("rail/" + string(RailFPGA)),
	})
	if err != nil {
		return err
	}
	b.rails[RailFPGA] = rail
	b.fab, err = fabric.New(fabric.Config{
		Device:        deviceFor(b.spec),
		CapPerElement: CapPerElement,
		Voltage:       rail.Voltage,
	})
	if err != nil {
		return err
	}
	rail.MustAttach(b.fab)
	reg, err := pdn.NewRegulator(pdn.RegulatorConfig{
		Rail:        rail,
		Band:        band,
		Drop:        pdn.DropModel{ResistanceOhm: 0.008, InductanceHenry: 2e-10},
		LoadLineOhm: fpgaLoadLineOhm,
		Disabled:    cfg.DisableStabilizer,
	})
	if err != nil {
		return err
	}
	b.regs[RailFPGA] = reg
	return nil
}

// newPSChain builds one PS supply's load, background load, rail and
// regulator, unregistered, and records the rail, regulator and load on
// the board.
func (b *SoC) newPSChain(def psRail) (*psChain, error) {
	name := string(def.id)
	rail, err := power.NewRail(power.RailConfig{
		Name: name, NominalVoltage: def.volts,
		StaticCurrent: 0, NoiseSigma: psNoiseAmps,
		Rand: b.eng.Stream("rail/" + name),
	})
	if err != nil {
		return nil, err
	}
	load, err := NewUtilizationSource("load/"+name, def.idle, def.dynamic)
	if err != nil {
		return nil, err
	}
	rail.MustAttach(load)
	bg := def.background
	os, err := NewBackgroundLoad("os/"+name, bg[0], bg[1], bg[2], bg[3], b.eng.Stream("os/"+name))
	if err != nil {
		return nil, err
	}
	rail.MustAttach(os)
	reg, err := pdn.NewRegulator(pdn.RegulatorConfig{
		Rail: rail, Band: def.band,
		Drop:        pdn.DropModel{ResistanceOhm: 0.005, InductanceHenry: 2e-10},
		LoadLineOhm: 0.002,
	})
	if err != nil {
		return nil, err
	}
	b.rails[def.id] = rail
	b.regs[def.id] = reg
	*def.load = load
	return &psChain{parts: [3]sim.Steppable{os, rail, reg}, load: load, gate: &b.gate}, nil
}

// newMiscSensors builds the sensors of the board's remaining rails,
// carrying fixed bias loads. Their probes read only their own stream
// and constants, so they can be deferred: integrated when read, not on
// every tick.
func (b *SoC) newMiscSensors(cfg Config) ([]*ina226.Device, error) {
	var devs []*ina226.Device
	for _, m := range miscRailsFor(b.spec) {
		m := m
		rng := b.eng.Stream("misc/" + m.label)
		dev, err := b.newSensor(cfg, m.label, psShuntOhms, ina226.Probe{
			CurrentAmps: func() float64 { return m.amps + rng.NormFloat64()*0.001 },
			BusVolts:    func() float64 { return m.volts },
		})
		if err != nil {
			return nil, err
		}
		devs = append(devs, dev)
	}
	return devs, nil
}

// injectFaults hooks the profile's fault mix, when cfg has an enabled
// one, into every layer of the stack.
func (b *SoC) injectFaults(cfg Config) {
	if cfg.Faults == nil || !cfg.Faults.Enabled() {
		return
	}
	inj := faults.New(*cfg.Faults, b.eng)
	b.injector = inj
	b.tree.SetReadFault(inj.SysfsReadFault)
	for label, dev := range b.sensors {
		dev.SetFaults(inj.SensorFaults(label))
	}
	for id, reg := range b.regs {
		d := inj.RegulatorDisturbance(string(id))
		reg.SetDisturbance(d)
		if d != nil {
			b.observe(id) // the transients count on the tick
		}
	}
	// Registered last so a renumber lands after the tick's sensor
	// updates, like an asynchronous kernel event between samples.
	if hp := inj.HotplugStepper(b.hw); hp != nil {
		b.eng.MustRegister("faults/hotplug", hp)
	}
}

// newSensor builds one of the board's INA226s and exposes it through
// hwmon; the caller hands it to whatever steps it.
func (b *SoC) newSensor(cfg Config, label string, shunt float64, probe ina226.Probe) (*ina226.Device, error) {
	dev, err := ina226.New(ina226.Config{
		Label:           label,
		ShuntOhms:       shunt,
		CurrentLSB:      currentLSBAmps,
		UpdateInterval:  cfg.UpdateInterval,
		NoiseShuntVolts: 2e-6,
		NoiseBusVolts:   50e-6,
		Probe:           probe,
		Rand:            b.eng.Stream("ina226/" + label),
	})
	if err != nil {
		return nil, err
	}
	if _, err := b.hw.Register(dev); err != nil {
		return nil, err
	}
	b.sensors[label] = dev
	return dev, nil
}

// observe makes a PS chain eager: its rail or regulator is about to be
// read or perturbed by something other than its sensor. It is a no-op
// for the FPGA rail.
func (b *SoC) observe(id RailID) {
	if c := b.chains[id]; c != nil {
		c.makeEager()
	}
}

// Spec returns the catalog entry the board was wired from.
func (b *SoC) Spec() Spec { return b.spec }

// Engine returns the board's simulation engine.
func (b *SoC) Engine() *sim.Engine { return b.eng }

// Sysfs returns the board's simulated sysfs tree.
func (b *SoC) Sysfs() *sysfs.FS { return b.tree }

// Hwmon returns the board's hwmon subsystem.
func (b *SoC) Hwmon() *hwmon.Subsystem { return b.hw }

// Fabric returns the PL fabric for deploying victim circuits.
func (b *SoC) Fabric() *fabric.Fabric { return b.fab }

// Rail returns one of the four monitored rails. A PS rail is kept up
// to date on every tick from then on, so what the caller reads is
// never stale.
func (b *SoC) Rail(id RailID) (*power.Rail, error) {
	r, ok := b.rails[id]
	if !ok {
		return nil, fmt.Errorf("board: unknown rail %q", id)
	}
	b.observe(id)
	return r, nil
}

// Regulator returns the regulator of one of the monitored rails. A PS
// rail's chain is stepped on every tick from then on, as for Rail.
func (b *SoC) Regulator(id RailID) (*pdn.Regulator, error) {
	r, ok := b.regs[id]
	if !ok {
		return nil, fmt.Errorf("board: unknown rail %q", id)
	}
	b.observe(id)
	return r, nil
}

// CPUFull returns the full-power CPU domain load.
func (b *SoC) CPUFull() *UtilizationSource { return b.cpuFull }

// CPULow returns the low-power CPU domain load.
func (b *SoC) CPULow() *UtilizationSource { return b.cpuLow }

// DDR returns the DDR memory load.
func (b *SoC) DDR() *UtilizationSource { return b.ddr }

// Sensor returns an INA226 by board designator.
func (b *SoC) Sensor(label string) (*ina226.Device, error) {
	d, ok := b.sensors[label]
	if !ok {
		return nil, fmt.Errorf("board: unknown sensor %q", label)
	}
	return d, nil
}

// SensorCount returns the number of integrated sensors.
func (b *SoC) SensorCount() int { return len(b.sensors) }

// FaultInjector returns the board's fault injector, or nil when the
// board was built without an enabled Config.Faults profile.
func (b *SoC) FaultInjector() *faults.Injector { return b.injector }

// Run advances the board by d of simulated time.
func (b *SoC) Run(d time.Duration) { b.eng.Run(d) }
