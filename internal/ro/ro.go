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
//
// The model is windowed: a count depends only on what a sampling window
// sums, so a tick adds the rail voltage to one running sum for the whole
// bank, and each oscillator's frequency jitter is one draw per sample
// for the window rather than one per tick.
package ro

import (
	"errors"
	"math"
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
	// i.e. ≈1.3 %% per 10 mV, a typical RO figure. Must not be negative:
	// a loop slows as its supply droops.
	VoltSensitivity float64
	// LocalDroopVoltsPerElement converts clock-region switching activity
	// into additional local droop seen by oscillators in that region;
	// zero disables the spatial effect. The activity is read from the
	// fabric the bank was deployed on, so a bank with local droop must
	// be placed with Deploy.
	LocalDroopVoltsPerElement float64
	// JitterHz is the RMS frequency jitter, independent from tick to
	// tick; zero disables. A sample's count depends only on the
	// window's sum, so the bank draws that sum once per oscillator per
	// sample: N(0, JitterHz·√Σdt²) cycles over the ticks the oscillator
	// ran.
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

	// Per oscillator: the local droop read from the region map at
	// generation mapGen, and the open window's deterministic cycles,
	// jitter variance (Σ dt² over the ticks it oscillated, in s²) and
	// the fractional phase carried from the last sample. Deploy's Place
	// moves the fabric's generation past zero, so a deployed bank reads
	// its droop on its first step.
	droop, cycles, jvar, carry []float64
	mapGen                     uint64

	// The run of ticks not yet folded into cycles: all share dt and the
	// droop, and none had a rail below clampBelow. dev sums their rail
	// deviation from nominal.
	ticks      int
	dev        float64
	dt         time.Duration
	clampBelow float64 // rail voltage below which an oscillator may stop
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
	if cfg.VoltSensitivity < 0 {
		return nil, errors.New("ro: negative voltage sensitivity")
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
	n := cfg.Count
	b := &Bank{
		cfg:    cfg,
		droop:  make([]float64, n),
		cycles: make([]float64, n),
		jvar:   make([]float64, n),
		carry:  make([]float64, n),
	}
	b.clampBelow = b.clampVoltage(0)
	return b, nil
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

// Step implements fabric.Circuit. An oscillator's frequency is linear
// in its supply, so over a run of ticks with the same dt and local
// droop its cycles are base·dt·(T + sens·(Σ(g_t − nominal) − T·droop)):
// a tick only adds the rail's deviation g_t − nominal to a running sum,
// and the run is folded into every oscillator's cycles at a sample, when
// the fabric's region map moves (with local droop, each oscillator sees
// its clock region's activity over the fabric's last completed tick) or
// when dt changes. A tick on which some oscillator's frequency could be
// negative is stepped oscillator by oscillator instead, so that one
// counts nothing for it, exactly as a stopped loop would.
func (b *Bank) Step(now, dt time.Duration) {
	g := b.cfg.Volts()
	if b.cfg.LocalDroopVoltsPerElement > 0 {
		if b.fab == nil {
			panic("ro: bank with local droop stepped without Deploy: its oscillators have no clock regions")
		}
		if b.fab.RegionMapGen() != b.mapGen {
			b.fold()
			b.readDroop()
		}
	}
	if dt != b.dt {
		b.fold()
		b.dt = dt
	}
	if g < b.clampBelow {
		b.stepClamped(g)
		return
	}
	b.ticks++
	b.dev += g - b.cfg.NominalVolts
}

// fold adds the pending run of ticks to every oscillator's cycles and
// jitter variance.
func (b *Bank) fold() {
	if b.ticks == 0 {
		return
	}
	sec := b.dt.Seconds()
	t := float64(b.ticks)
	scale, sens, v := b.cfg.BaseHz*sec, b.cfg.VoltSensitivity, t*sec*sec
	for i, d := range b.droop {
		b.cycles[i] += scale * (t + sens*(b.dev-t*d))
		b.jvar[i] += v
	}
	b.ticks, b.dev = 0, 0
}

// stepClamped steps one tick at rail voltage g per oscillator, adding
// nothing for an oscillator whose frequency is not positive.
func (b *Bank) stepClamped(g float64) {
	sec := b.dt.Seconds()
	base, sens, nominal := b.cfg.BaseHz, b.cfg.VoltSensitivity, b.cfg.NominalVolts
	for i, d := range b.droop {
		if f := base * (1 + sens*(g-d-nominal)); f > 0 {
			b.cycles[i] += f * sec
			b.jvar[i] += sec * sec
		}
	}
}

// readDroop reads every oscillator's local droop from the fabric's
// region map and moves the clamp threshold with the largest one.
func (b *Bank) readDroop() {
	local := b.fab.RegionMap()
	k, top := b.cfg.LocalDroopVoltsPerElement, 0.0
	for i, r := range b.regions {
		b.droop[i] = k * local[r.Row][r.Col]
		top = max(top, b.droop[i])
	}
	b.mapGen = b.fab.RegionMapGen()
	b.clampBelow = b.clampVoltage(top)
}

// clampVoltage is the rail voltage below which an oscillator with local
// droop d may run at a negative frequency, 1 + sens·(g − d − nominal) < 0,
// raised by a margin far above the rounding of that expression.
func (b *Bank) clampVoltage(d float64) float64 {
	stop := b.cfg.NominalVolts + d - 1/b.cfg.VoltSensitivity
	return stop + 1e-9*(b.cfg.NominalVolts+d+1/b.cfg.VoltSensitivity)
}

// count closes oscillator i's window and returns its integer count. The
// window's jitter is one draw: the sum of independent per-tick N(0, σ)
// frequency errors over its oscillating ticks is N(0, σ·√Σdt²) cycles.
// The window never counts backwards, and the fractional phase remainder
// carries over, exactly like a free-running hardware counter — this
// carry is what lets long averages recover sub-count frequency
// differences.
func (b *Bank) count(i int) int {
	inc := b.cycles[i]
	if b.cfg.JitterHz > 0 {
		inc += b.cfg.Rand.NormFloat64() * b.cfg.JitterHz * math.Sqrt(b.jvar[i])
	}
	p := b.carry[i] + max(inc, 0)
	c := int(p)
	b.carry[i] = p - float64(c)
	b.cycles[i], b.jvar[i] = 0, 0
	return c
}

// Sample reads and resets every oscillator's counter, returning the
// integer counts accumulated since the previous sample. It draws one
// jitter value per oscillator, in oscillator order.
func (b *Bank) Sample() []int {
	b.fold()
	counts := make([]int, len(b.carry))
	for i := range counts {
		counts[i] = b.count(i)
	}
	return counts
}

// SampleMean is Sample reduced to the mean count across the bank, the
// aggregate statistic the Fig. 2 comparison uses. It makes the same
// draws and leaves the same carry as Sample, and allocates nothing.
func (b *Bank) SampleMean() float64 {
	b.fold()
	sum := 0
	for i := range b.carry {
		sum += b.count(i)
	}
	return float64(sum) / float64(len(b.carry))
}
