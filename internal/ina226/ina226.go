// Package ina226 models the Texas Instruments INA226 current/voltage/
// power monitor, the sensor AmpereBleed exploits.
//
// The model follows the datasheet arithmetic (TI SBOS547):
//
//   - the shunt-voltage ADC has a 2.5 µV LSB,
//   - the bus-voltage ADC has a 1.25 mV LSB (the fixed, coarse resolution
//     that cripples the voltage side channel in the paper),
//   - the calibration register is CAL = 0.00512 / (CurrentLSB · R_shunt),
//   - the current register is Current = (ShuntReg · CAL) / 2048,
//   - the power register is Power = (CurrentReg · BusReg) / 20000, with a
//     power LSB fixed at 25 × CurrentLSB (the "ratio of 25" the paper
//     cites; with the boards' 1 mA current LSB this truncates power to
//     25 mW steps).
//
// During each update interval the device integrates the analog rail
// quantities (the hardware's conversion-time + averaging filter), then
// latches quantized register values that stay constant until the next
// update — exactly the behaviour an unprivileged reader polling hwmon
// observes. The hwmon update interval is configurable between 2 and
// 35 ms; the default is 35 ms and changing it requires root, both facts
// the attack model depends on.
package ina226

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Conversion-cycle and register-read counters, aggregated over every
// device in the process (the fingerprinting pipeline runs many boards,
// each with up to 18 sensors, in parallel). The ratio of reads to
// conversions is the oversampling factor: reads beyond one per
// conversion return the same latched registers and carry no new
// side-channel information.
var (
	obsConversions   = obs.C("ina226.conversions")
	obsRegisterReads = obs.C("ina226.register_reads")
)

// Datasheet and driver constants.
const (
	// ShuntLSB is the shunt-voltage ADC resolution: 2.5 µV.
	ShuntLSB = 2.5e-6
	// BusLSB is the bus-voltage ADC resolution: 1.25 mV.
	BusLSB = 1.25e-3
	// PowerLSBRatio fixes the power LSB at 25× the current LSB.
	PowerLSBRatio = 25
	// MinUpdateInterval is the smallest hwmon update interval.
	MinUpdateInterval = 2 * time.Millisecond
	// MaxUpdateInterval is the largest (and default) hwmon update interval.
	MaxUpdateInterval = 35 * time.Millisecond
	// DefaultUpdateInterval is the boards' out-of-the-box setting; an
	// unprivileged attacker is stuck with it.
	DefaultUpdateInterval = MaxUpdateInterval
)

// Probe supplies the analog quantities at the sensor's monitoring point.
type Probe struct {
	// CurrentAmps returns the instantaneous rail current in amps.
	CurrentAmps func() float64
	// BusVolts returns the instantaneous rail voltage in volts.
	BusVolts func() float64
}

// Config describes one INA226 instance.
type Config struct {
	// Label is the board designator, e.g. "ina226_u79".
	Label string
	// ShuntOhms is the dedicated shunt resistor value. Required > 0.
	ShuntOhms float64
	// CurrentLSB is the current register resolution in amps; the boards
	// expose 1 mA. Required > 0.
	CurrentLSB float64
	// UpdateInterval is the initial hwmon update interval; zero means
	// DefaultUpdateInterval. Otherwise must lie in [Min,Max].
	UpdateInterval time.Duration
	// NoiseShuntVolts is the RMS analog noise on the shunt input, volts.
	NoiseShuntVolts float64
	// NoiseBusVolts is the RMS analog noise on the bus input, volts.
	NoiseBusVolts float64
	// Probe supplies the monitored rail. Both functions required.
	Probe Probe
	// Rand supplies the noise stream; required when any noise is set.
	Rand *sim.Rand
}

// Device is one simulated INA226.
type Device struct {
	label      string
	shuntOhms  float64
	currentLSB float64
	cal        uint16
	interval   time.Duration
	probe      Probe
	rng        *sim.Rand
	nShunt     float64
	nBus       float64

	// integration state within the current update window
	accShunt float64 // volt-seconds across the shunt
	accBus   float64 // volt-seconds on the bus
	accTime  time.Duration

	// latched registers
	shuntReg   int32
	busReg     int32
	currentReg int32
	powerReg   int32
	updates    uint64

	// I2C-visible configuration state (registers.go)
	configReg  uint16
	maskEnable uint16
	alertLimit uint16

	// fault-injection hooks (optional; see SetFaults)
	faults FaultHooks

	// Cached dt→seconds conversion for the fixed-step tick loop. The
	// engine steps with a constant dt, so the division in
	// time.Duration.Seconds runs once instead of once per tick; reusing
	// the cached value is bit-identical to recomputing it.
	lastDt  time.Duration
	lastSec float64
}

// New validates cfg and returns a device with all registers zero.
func New(cfg Config) (*Device, error) {
	if cfg.Label == "" {
		return nil, errors.New("ina226: sensor needs a label")
	}
	if cfg.ShuntOhms <= 0 {
		return nil, fmt.Errorf("ina226 %s: non-positive shunt", cfg.Label)
	}
	if cfg.CurrentLSB <= 0 {
		return nil, fmt.Errorf("ina226 %s: non-positive current LSB", cfg.Label)
	}
	if cfg.Probe.CurrentAmps == nil || cfg.Probe.BusVolts == nil {
		return nil, fmt.Errorf("ina226 %s: incomplete probe", cfg.Label)
	}
	if (cfg.NoiseShuntVolts > 0 || cfg.NoiseBusVolts > 0) && cfg.Rand == nil {
		return nil, fmt.Errorf("ina226 %s: noise requires a random stream", cfg.Label)
	}
	if cfg.NoiseShuntVolts < 0 || cfg.NoiseBusVolts < 0 {
		return nil, fmt.Errorf("ina226 %s: negative noise", cfg.Label)
	}
	interval := cfg.UpdateInterval
	if interval == 0 {
		interval = DefaultUpdateInterval
	}
	if interval < MinUpdateInterval || interval > MaxUpdateInterval {
		return nil, fmt.Errorf("ina226 %s: update interval %v outside [%v,%v]",
			cfg.Label, interval, MinUpdateInterval, MaxUpdateInterval)
	}
	calF := 0.00512 / (cfg.CurrentLSB * cfg.ShuntOhms)
	if calF < 1 || calF > math.MaxUint16 {
		return nil, fmt.Errorf("ina226 %s: calibration %v out of register range (check shunt/LSB)",
			cfg.Label, calF)
	}
	d := &Device{
		label:      cfg.Label,
		shuntOhms:  cfg.ShuntOhms,
		currentLSB: cfg.CurrentLSB,
		cal:        uint16(math.Round(calF)),
		interval:   interval,
		probe:      cfg.Probe,
		rng:        cfg.Rand,
		nShunt:     cfg.NoiseShuntVolts,
		nBus:       cfg.NoiseBusVolts,
		configReg:  cfgDefault,
	}
	d.encodeIntervalInConfig()
	return d, nil
}

// LatchedRegs is the set of registers written by one conversion latch,
// exposed to fault hooks so injected corruption happens exactly at the
// latch boundary — the point where a real device's analog glitch or
// I2C bit error would enter the digital domain.
type LatchedRegs struct {
	Shunt, Bus, Current, Power int32
}

// FaultHooks are the sensor-level fault-injection points (see
// internal/faults). Both hooks are optional; they run inside latch(),
// so every decision is a deterministic function of the device's
// conversion schedule.
type FaultHooks struct {
	// SkipLatch, when it returns true, drops the pending conversion:
	// the registers keep their previous (stale) values, the update
	// counter does not advance, and readers observing Updates see the
	// stall — the "stale value between conversion intervals" failure
	// mode of the hwmon stack.
	SkipLatch func() bool
	// CorruptLatch may mutate the freshly computed registers before
	// they are latched (e.g. flip a bit), modeling conversion glitches.
	CorruptLatch func(*LatchedRegs)
}

// SetFaults installs the fault hooks; the zero FaultHooks removes them.
func (d *Device) SetFaults(h FaultHooks) { d.faults = h }

// Label returns the board designator.
func (d *Device) Label() string { return d.label }

// ShuntOhms returns the shunt resistor value.
func (d *Device) ShuntOhms() float64 { return d.shuntOhms }

// CurrentLSB returns the current register resolution in amps.
func (d *Device) CurrentLSB() float64 { return d.currentLSB }

// PowerLSB returns the power register resolution in watts (25×CurrentLSB).
func (d *Device) PowerLSB() float64 { return PowerLSBRatio * d.currentLSB }

// Calibration returns the calibration register value.
func (d *Device) Calibration() uint16 { return d.cal }

// UpdateInterval returns the present hwmon update interval.
func (d *Device) UpdateInterval() time.Duration { return d.interval }

// SetUpdateInterval changes the update interval. The hwmon layer gates
// this behind root; the device itself only range-checks. The averaging
// bits of the configuration register are updated to the nearest
// encoding, mirroring how the ina2xx driver implements the attribute.
func (d *Device) SetUpdateInterval(v time.Duration) error {
	if v < MinUpdateInterval || v > MaxUpdateInterval {
		return fmt.Errorf("ina226 %s: update interval %v outside [%v,%v]",
			d.label, v, MinUpdateInterval, MaxUpdateInterval)
	}
	d.interval = v
	d.encodeIntervalInConfig()
	return nil
}

// encodeIntervalInConfig picks the AVG encoding closest to the present
// interval, keeping the configured conversion times.
func (d *Device) encodeIntervalInConfig() {
	ctBus := convTimes[(d.configReg>>cfgVBusShift)&0x7]
	ctShunt := convTimes[(d.configReg>>cfgVShShift)&0x7]
	per := ctBus + ctShunt
	best, bestDiff := 0, time.Duration(math.MaxInt64)
	for i, n := range avgCounts {
		diff := time.Duration(n)*per - d.interval
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			best, bestDiff = i, diff
		}
	}
	d.configReg = (d.configReg &^ (0x7 << cfgAvgShift)) | uint16(best)<<cfgAvgShift
}

// Updates returns how many register latches have occurred.
func (d *Device) Updates() uint64 { return d.updates }

// Step implements sim.Steppable: integrate the analog inputs and latch
// the registers when the update window closes.
func (d *Device) Step(now, dt time.Duration) {
	vShunt := d.probe.CurrentAmps() * d.shuntOhms
	vBus := d.probe.BusVolts()
	if d.nShunt > 0 {
		vShunt += d.rng.NormFloat64() * d.nShunt
	}
	if d.nBus > 0 {
		vBus += d.rng.NormFloat64() * d.nBus
	}
	if dt != d.lastDt {
		d.lastDt, d.lastSec = dt, dt.Seconds()
	}
	sec := d.lastSec
	d.accShunt += vShunt * sec
	d.accBus += vBus * sec
	d.accTime += dt
	if d.accTime >= d.interval {
		d.latch()
	}
}

// latch converts the averaged analog inputs to register values using the
// datasheet pipeline and resets the integration window.
func (d *Device) latch() {
	window := d.accTime.Seconds()
	meanShunt := d.accShunt / window
	meanBus := d.accBus / window
	d.accShunt, d.accBus, d.accTime = 0, 0, 0

	if d.faults.SkipLatch != nil && d.faults.SkipLatch() {
		// Stale-latch fault: the conversion result is lost; readers keep
		// seeing the previous registers and update count for another
		// whole interval.
		return
	}

	shunt := clampReg(math.Round(meanShunt / ShuntLSB))
	bus := clampReg(math.Round(meanBus / BusLSB))
	if bus < 0 {
		bus = 0 // bus ADC is unipolar
	}
	// Datasheet: Current = ShuntReg * CAL / 2048 (integer pipeline).
	current := int32(int64(shunt) * int64(d.cal) / 2048)
	// Datasheet: Power = CurrentReg * BusReg / 20000, LSB = 25*CurrentLSB.
	power := int32(int64(current) * int64(bus) / 20000)
	if power < 0 {
		power = 0
	}
	if d.faults.CorruptLatch != nil {
		// The LatchedRegs value is built (and escapes to the heap) only
		// when a corrupt-latch hook is installed; the fault-free tick
		// path stays allocation-free.
		regs := LatchedRegs{Shunt: shunt, Bus: bus, Current: current, Power: power}
		d.faults.CorruptLatch(&regs)
		shunt, bus, current, power = regs.Shunt, regs.Bus, regs.Current, regs.Power
	}
	d.shuntReg, d.busReg, d.currentReg, d.powerReg = shunt, bus, current, power
	d.updates++
	obsConversions.Inc()
	d.evaluateAlert()
}

func clampReg(v float64) int32 {
	if v > math.MaxInt16 {
		return math.MaxInt16
	}
	if v < math.MinInt16 {
		return math.MinInt16
	}
	return int32(v)
}

// Readings is a snapshot of the latched measurements in physical units.
type Readings struct {
	// CurrentAmps at CurrentLSB resolution.
	CurrentAmps float64
	// BusVolts at 1.25 mV resolution.
	BusVolts float64
	// PowerWatts at 25×CurrentLSB resolution.
	PowerWatts float64
	// Updates is the latch counter at snapshot time; two reads with the
	// same counter saw the same register contents.
	Updates uint64
}

// Read returns the currently latched measurements.
func (d *Device) Read() Readings {
	obsRegisterReads.Inc()
	return Readings{
		CurrentAmps: float64(d.currentReg) * d.currentLSB,
		BusVolts:    float64(d.busReg) * BusLSB,
		PowerWatts:  float64(d.powerReg) * d.PowerLSB(),
		Updates:     d.updates,
	}
}

// RegShunt returns the raw shunt-voltage register.
func (d *Device) RegShunt() int32 { return d.shuntReg }

// RegBus returns the raw bus-voltage register.
func (d *Device) RegBus() int32 { return d.busReg }

// RegCurrent returns the raw current register.
func (d *Device) RegCurrent() int32 { return d.currentReg }

// RegPower returns the raw power register.
func (d *Device) RegPower() int32 { return d.powerReg }
