// Package ro implements the ring-oscillator (RO) sensor baseline of
// Zhao & Suh (S&P'18), the crafted circuit AmpereBleed is compared
// against in Fig. 2.
//
// A ring oscillator is a combinational loop whose oscillation frequency
// rises and falls with the local supply voltage; feeding the loop into a
// counter and sampling the counter at fixed intervals turns voltage
// droop into count variations. Because commercial boards stabilize the
// FPGA rail, only a few millivolts of load-dependent droop remain, so
// RO counts move by well under a percent across the full victim range —
// the paper measures current variations 261× larger.
//
// The bank model places many oscillators across the die ("distributed
// throughout the FPGA board to average dependence on spatial proximity")
// and lets each one see the global rail voltage plus a local droop term
// proportional to the switching activity in its own clock region.
package ro

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Config describes a bank of ring oscillators.
type Config struct {
	// Count is the number of oscillators; zero means 32.
	Count int
	// BaseHz is the oscillation frequency at nominal voltage; zero means
	// 400 MHz (a short combinational loop).
	BaseHz float64
	// NominalVolts is the rail voltage at which BaseHz is achieved. Must
	// be > 0.
	NominalVolts float64
	// VoltSensitivity is the relative frequency change per volt of
	// supply deviation (df/f = VoltSensitivity · ΔV); zero means 1.3/V,
	// i.e. ≈1.3 %% per 10 mV, a typical RO figure.
	VoltSensitivity float64
	// LocalDroopVoltsPerElement converts clock-region switching activity
	// into additional local droop seen by oscillators in that region;
	// zero disables the spatial effect. The activity is read from the
	// fabric the bank was deployed on, so a bank with local droop must
	// be placed with Deploy.
	LocalDroopVoltsPerElement float64
	// JitterHz is the RMS cycle-to-cycle frequency jitter; zero disables.
	JitterHz float64
	// Volts returns the present global rail voltage. Required.
	Volts func() float64
	// Rand supplies the jitter stream; required when JitterHz > 0.
	Rand *sim.Rand
	// UtilizationPerRO is the logic occupied by one oscillator+counter;
	// zero means 8 LUTs and 32 FFs.
	UtilizationPerRO fabric.Resources
}

// Bank is a set of placed ring oscillators. It implements
// fabric.Circuit; place it with Deploy before stepping. A bank without
// local droop may also be placed with fabric.Place or stepped unplaced;
// stepping one with local droop that Deploy did not place panics.
type Bank struct {
	cfg     Config
	fab     *fabric.Fabric  // the fabric Deploy placed the bank on
	regions []fabric.Region // each oscillator's clock region, set by Deploy
	phase   []float64       // accumulated oscillation cycles per RO
	freq    []float64       // present frequency per RO, for diagnostics
}

// New validates cfg and returns an unplaced bank.
func New(cfg Config) (*Bank, error) {
	if cfg.Count == 0 {
		cfg.Count = 32
	}
	if cfg.Count < 0 {
		return nil, errors.New("ro: negative count")
	}
	if cfg.BaseHz == 0 {
		cfg.BaseHz = 400e6
	}
	if cfg.BaseHz < 0 {
		return nil, errors.New("ro: negative base frequency")
	}
	if cfg.NominalVolts <= 0 {
		return nil, errors.New("ro: non-positive nominal voltage")
	}
	if cfg.VoltSensitivity == 0 {
		cfg.VoltSensitivity = 1.3
	}
	if cfg.Volts == nil {
		return nil, errors.New("ro: missing voltage probe")
	}
	if cfg.JitterHz > 0 && cfg.Rand == nil {
		return nil, errors.New("ro: jitter requires a random stream")
	}
	if cfg.JitterHz < 0 || cfg.LocalDroopVoltsPerElement < 0 {
		return nil, errors.New("ro: negative noise parameter")
	}
	if (cfg.UtilizationPerRO == fabric.Resources{}) {
		cfg.UtilizationPerRO = fabric.Resources{LUTs: 8, FFs: 32}
	}
	return &Bank{
		cfg:   cfg,
		phase: make([]float64, cfg.Count),
		freq:  make([]float64, cfg.Count),
	}, nil
}

// Deploy distributes the bank round-robin over every clock region of the
// fabric and records the fabric and which oscillator landed where.
func (b *Bank) Deploy(f *fabric.Fabric) error {
	all := f.SpreadEvenly()
	if err := f.Place(b, all); err != nil {
		return err
	}
	b.fab = f
	b.regions = make([]fabric.Region, b.cfg.Count)
	for i := range b.regions {
		b.regions[i] = all[i%len(all)]
	}
	return nil
}

// Count returns the number of oscillators.
func (b *Bank) Count() int { return b.cfg.Count }

// CircuitName implements fabric.Circuit.
func (b *Bank) CircuitName() string { return "ro-bank" }

// Utilization implements fabric.Circuit.
func (b *Bank) Utilization() fabric.Resources {
	u := b.cfg.UtilizationPerRO
	n := b.cfg.Count
	return fabric.Resources{LUTs: u.LUTs * n, FFs: u.FFs * n, DSPs: u.DSPs * n, BRAMKb: u.BRAMKb * n}
}

// ActiveElements implements fabric.Circuit. Each oscillator toggles its
// own loop continuously, a small constant self-load.
func (b *Bank) ActiveElements() float64 {
	return float64(b.cfg.Count * b.cfg.UtilizationPerRO.LUTs)
}

// Step implements fabric.Circuit: advance every oscillator's phase
// accumulator by its instantaneous frequency. With local droop, each
// oscillator also sees its clock region's activity over the fabric's
// last completed tick.
func (b *Bank) Step(now, dt time.Duration) {
	sec := dt.Seconds()
	global := b.cfg.Volts()
	droop := b.cfg.LocalDroopVoltsPerElement
	base, sens, nominal := b.cfg.BaseHz, b.cfg.VoltSensitivity, b.cfg.NominalVolts
	jitter, rng := b.cfg.JitterHz, b.cfg.Rand
	var local [][]float64
	if droop > 0 {
		if b.fab == nil {
			panic("ro: bank with local droop stepped without Deploy: its oscillators have no clock regions")
		}
		local = b.fab.RegionMap()
	}
	for i := range b.phase {
		v := global
		if droop > 0 {
			r := b.regions[i]
			v -= droop * local[r.Row][r.Col]
		}
		f := base * (1 + sens*(v-nominal))
		if jitter > 0 {
			f += rng.NormFloat64() * jitter
		}
		if f < 0 {
			f = 0
		}
		b.freq[i] = f
		b.phase[i] += f * sec
	}
}

// Sample reads and resets every oscillator's counter, returning the
// integer counts accumulated since the previous sample. The fractional
// phase remainder carries over, exactly like a free-running hardware
// counter — this carry is what lets long averages recover sub-count
// frequency differences.
func (b *Bank) Sample() []int {
	counts := make([]int, len(b.phase))
	for i, p := range b.phase {
		c := int(p)
		counts[i] = c
		b.phase[i] = p - float64(c)
	}
	return counts
}

// SampleMean is Sample reduced to the mean count across the bank, the
// aggregate statistic the Fig. 2 comparison uses. It reads and resets
// the counters in place, carrying the fractional phase as Sample does,
// so it allocates nothing.
func (b *Bank) SampleMean() float64 {
	if len(b.phase) == 0 {
		return 0
	}
	sum := 0
	for i, p := range b.phase {
		c := int(p)
		sum += c
		b.phase[i] = p - float64(c)
	}
	return float64(sum) / float64(len(b.phase))
}

// Frequency returns the last computed frequency of oscillator i.
func (b *Bank) Frequency(i int) (float64, error) {
	if i < 0 || i >= len(b.freq) {
		return 0, fmt.Errorf("ro: oscillator %d out of range", i)
	}
	return b.freq[i], nil
}
