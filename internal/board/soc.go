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

	rails map[RailID]*power.Rail
	regs  map[RailID]*pdn.Regulator

	cpuFull *UtilizationSource
	cpuLow  *UtilizationSource
	ddr     *UtilizationSource

	sensors map[string]*ina226.Device

	injector *faults.Injector // nil unless Config.Faults enabled
}

// ZCU102 is an alias for the generic SoC type: the ZCU102 is the
// paper's experimental machine and the default board everywhere.
type ZCU102 = SoC

// NewZCU102 builds and wires the paper's evaluation board.
func NewZCU102(cfg Config) (*SoC, error) {
	spec, _ := Lookup("ZCU102")
	return Wire(spec, cfg)
}

// New builds any catalog board by name.
func New(name string, cfg Config) (*SoC, error) {
	spec, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("board: unknown board %q", name)
	}
	return Wire(spec, cfg)
}

// Wire assembles a board from a catalog spec: the family's FPGA device
// and stabilizer band, CPU domains scaled to the CPU model, a DDR rail,
// and the spec's full complement of INA226 sensors.
func Wire(spec Spec, cfg Config) (*SoC, error) {
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
	hw, err := hwmon.New(tree)
	if err != nil {
		return nil, err
	}
	b := &SoC{
		spec:    spec,
		eng:     eng,
		tree:    tree,
		hw:      hw,
		rails:   make(map[RailID]*power.Rail),
		regs:    make(map[RailID]*pdn.Regulator),
		sensors: make(map[string]*ina226.Device),
	}

	// The FPGA rail runs at the family-typical VCCINT nominal (0.85 V on
	// Zynq UltraScale+, 0.80 V on Versal), inside the stabilizer band.
	band := spec.VoltageBand
	nominal := 0.85
	if spec.Family == FamilyVersal {
		nominal = 0.80
	}
	if !band.Contains(nominal) {
		nominal = (band.Min + band.Max) / 2
	}
	cpuScale := 1.0
	if spec.CPUModel == "Cortex-A72" {
		cpuScale = a72PowerScale
	}

	// --- FPGA rail: fabric load, stabilized VCCINT. ---
	fpgaRail, err := power.NewRail(power.RailConfig{
		Name: string(RailFPGA), NominalVoltage: nominal,
		StaticCurrent: fpgaStaticAmps, NoiseSigma: fpgaNoiseAmps,
		Rand: eng.Stream("rail/" + string(RailFPGA)),
	})
	if err != nil {
		return nil, err
	}
	b.rails[RailFPGA] = fpgaRail
	b.fab, err = fabric.New(fabric.Config{
		Device:        deviceFor(spec),
		CapPerElement: CapPerElement,
		Voltage:       fpgaRail.Voltage,
	})
	if err != nil {
		return nil, err
	}
	fpgaRail.MustAttach(b.fab)
	fpgaReg, err := pdn.NewRegulator(pdn.RegulatorConfig{
		Rail:        fpgaRail,
		Band:        band,
		Drop:        pdn.DropModel{ResistanceOhm: 0.008, InductanceHenry: 2e-10},
		LoadLineOhm: fpgaLoadLineOhm,
		Disabled:    cfg.DisableStabilizer,
	})
	if err != nil {
		return nil, err
	}
	b.regs[RailFPGA] = fpgaReg

	// --- PS rails: utilization-driven CPU domains and DDR. ---
	type psRail struct {
		id            RailID
		volts         float64
		band          pdn.Band
		idle, dynamic float64
		load          **UtilizationSource
	}
	psDefs := []psRail{
		{RailCPUFull, 0.85, BandZynqUltraScale, cpuFullIdleAmps * cpuScale, cpuFullDynamicAmps * cpuScale, &b.cpuFull},
		{RailCPULow, 0.85, BandZynqUltraScale, cpuLowIdleAmps * cpuScale, cpuLowDynamicAmps * cpuScale, &b.cpuLow},
		{RailDDR, 1.20, pdn.Band{Min: 1.14, Max: 1.26}, ddrIdleAmps, ddrDynamicAmps, &b.ddr},
	}
	// OS background activity per PS rail: mean/diffusion/reversion/max,
	// calibrated so the CPU channels are informative but noisy (the
	// paper's 83.7%/55.7% CPU fingerprinting accuracies) while DDR stays
	// comparatively clean.
	background := map[RailID][4]float64{
		RailCPUFull: {0.10, 0.30, 20, 0.8},
		RailCPULow:  {0.05, 0.04, 20, 0.4},
		RailDDR:     {0.08, 0.06, 20, 0.6},
	}
	for _, def := range psDefs {
		rail, err := power.NewRail(power.RailConfig{
			Name: string(def.id), NominalVoltage: def.volts,
			StaticCurrent: 0, NoiseSigma: psNoiseAmps,
			Rand: eng.Stream("rail/" + string(def.id)),
		})
		if err != nil {
			return nil, err
		}
		load, err := NewUtilizationSource("load/"+string(def.id), def.idle, def.dynamic)
		if err != nil {
			return nil, err
		}
		rail.MustAttach(load)
		bg := background[def.id]
		os, err := NewBackgroundLoad("os/"+string(def.id), bg[0], bg[1], bg[2], bg[3],
			eng.Stream("os/"+string(def.id)))
		if err != nil {
			return nil, err
		}
		rail.MustAttach(os)
		eng.MustRegister("os/"+string(def.id), os)
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
	}

	// --- Engine wiring: loads feed rails, rails feed regulators, and
	// the sensors sample last so each tick they see settled values. ---
	eng.MustRegister("fabric", b.fab)
	for _, id := range []RailID{RailFPGA, RailCPUFull, RailCPULow, RailDDR} {
		eng.MustRegister("rail/"+string(id), b.rails[id])
		eng.MustRegister("reg/"+string(id), b.regs[id])
	}

	// --- Sensors: the four sensitive ones (Table II)... ---
	sensitive := []struct {
		label string
		rail  RailID
		shunt float64
	}{
		{SensorCPUFull, RailCPUFull, psShuntOhms},
		{SensorCPULow, RailCPULow, psShuntOhms},
		{SensorFPGA, RailFPGA, fpgaShuntOhms},
		{SensorDDR, RailDDR, psShuntOhms},
	}
	for _, sd := range sensitive {
		rail := b.rails[sd.rail]
		if err := b.addSensor(cfg, sd.label, sd.shunt, ina226.Probe{
			CurrentAmps: rail.Current,
			BusVolts:    rail.Voltage,
		}, false); err != nil {
			return nil, err
		}
	}
	// --- ...and the board's remaining rails, carrying fixed bias loads.
	// Their probes read only their own stream and constants, so they are
	// deferred: integrated when read, not on every tick. ---
	for _, m := range miscRailsFor(spec) {
		m := m
		rng := eng.Stream("misc/" + m.label)
		if err := b.addSensor(cfg, m.label, psShuntOhms, ina226.Probe{
			CurrentAmps: func() float64 { return m.amps + rng.NormFloat64()*0.001 },
			BusVolts:    func() float64 { return m.volts },
		}, true); err != nil {
			return nil, err
		}
	}

	// --- Fault injection (optional): hook every layer of the stack. ---
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		inj := faults.New(*cfg.Faults, eng)
		b.injector = inj
		tree.SetReadFault(inj.SysfsReadFault)
		for label, dev := range b.sensors {
			dev.SetFaults(inj.SensorFaults(label))
		}
		for id, reg := range b.regs {
			reg.SetDisturbance(inj.RegulatorDisturbance(string(id)))
		}
		// Registered last so a renumber lands after the tick's sensor
		// updates, like an asynchronous kernel event between samples.
		if hp := inj.HotplugStepper(hw); hp != nil {
			eng.MustRegister("faults/hotplug", hp)
		}
	}
	return b, nil
}

func (b *SoC) addSensor(cfg Config, label string, shunt float64, probe ina226.Probe, deferred bool) error {
	dev, err := ina226.New(ina226.Config{
		Label:           label,
		ShuntOhms:       shunt,
		CurrentLSB:      currentLSBAmps,
		UpdateInterval:  cfg.UpdateInterval,
		NoiseShuntVolts: 2e-6,
		NoiseBusVolts:   50e-6,
		Probe:           probe,
		Rand:            b.eng.Stream("ina226/" + label),
		Deferred:        deferred,
	})
	if err != nil {
		return err
	}
	if _, err := b.hw.Register(dev); err != nil {
		return err
	}
	b.eng.MustRegister("ina226/"+label, dev)
	b.sensors[label] = dev
	return nil
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

// Rail returns one of the four monitored rails.
func (b *SoC) Rail(id RailID) (*power.Rail, error) {
	r, ok := b.rails[id]
	if !ok {
		return nil, fmt.Errorf("board: unknown rail %q", id)
	}
	return r, nil
}

// Regulator returns the regulator of one of the monitored rails.
func (b *SoC) Regulator(id RailID) (*pdn.Regulator, error) {
	r, ok := b.regs[id]
	if !ok {
		return nil, fmt.Errorf("board: unknown rail %q", id)
	}
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
