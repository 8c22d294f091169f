// Package power models the supply rails of an ARM-FPGA SoC board.
//
// Each monitored hardware component (full-power CPU domain, low-power CPU
// domain, FPGA logic, DDR memory) is supplied by a Rail. Circuits attach
// to a rail as current Sources; once per simulation tick the rail sums
// the static bias current and every source's dynamic draw, applies a
// small electrical noise term, and exposes the resulting current and
// power. The rail's voltage is owned by the regulator in internal/pdn.
//
// The package implements Equation 2 of the AmpereBleed paper:
//
//	P_dyn = V_dd * ΣI(LE, RAM, DSP, Clocks, ...)
//
// the physical fact the attack rests on — even with V_dd pinned by a
// stabilizer, power changes appear as current changes.
package power

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
)

// Source is anything that draws current from a rail. Implementations are
// stepped by the simulation engine before the rail that reads them, so
// Current always reflects the present tick.
type Source interface {
	// SourceName identifies the source for diagnostics.
	SourceName() string
	// Current returns the instantaneous dynamic current draw in amps.
	Current() float64
}

// ConstantSource draws a fixed current; useful for idle logic blocks and
// in tests.
type ConstantSource struct {
	Name string
	Amps float64
}

// SourceName implements Source.
func (c *ConstantSource) SourceName() string { return c.Name }

// Current implements Source.
func (c *ConstantSource) Current() float64 { return c.Amps }

// Rail is a monitored supply rail.
type Rail struct {
	name    string
	nominal float64 // design voltage in volts
	voltage float64 // present voltage, set by the regulator
	static  float64 // static (leakage + bias) current in amps

	noiseSigma float64 // gaussian current noise, amps RMS
	rng        *sim.Rand

	sources []Source

	current float64 // last computed total current, amps
}

// RailConfig describes a rail.
type RailConfig struct {
	// Name of the rail, e.g. "VCCINT".
	Name string
	// NominalVoltage in volts.
	NominalVoltage float64
	// StaticCurrent in amps: leakage and bias draw present even when all
	// attached circuits are idle. The paper notes current readings "do
	// not start from 0" because of exactly this static workload.
	StaticCurrent float64
	// NoiseSigma is the RMS of the gaussian electrical noise added to the
	// rail current each tick, in amps. Zero disables noise.
	NoiseSigma float64
	// Rand supplies the noise stream. Required when NoiseSigma > 0.
	Rand *sim.Rand
}

// NewRail validates cfg and returns a rail at its nominal voltage.
func NewRail(cfg RailConfig) (*Rail, error) {
	if cfg.Name == "" {
		return nil, errors.New("power: rail needs a name")
	}
	if cfg.NominalVoltage <= 0 {
		return nil, fmt.Errorf("power: rail %s: non-positive nominal voltage", cfg.Name)
	}
	if cfg.StaticCurrent < 0 {
		return nil, fmt.Errorf("power: rail %s: negative static current", cfg.Name)
	}
	if cfg.NoiseSigma < 0 {
		return nil, fmt.Errorf("power: rail %s: negative noise sigma", cfg.Name)
	}
	if cfg.NoiseSigma > 0 && cfg.Rand == nil {
		return nil, fmt.Errorf("power: rail %s: noise requires a random stream", cfg.Name)
	}
	return &Rail{
		name:       cfg.Name,
		nominal:    cfg.NominalVoltage,
		voltage:    cfg.NominalVoltage,
		static:     cfg.StaticCurrent,
		noiseSigma: cfg.NoiseSigma,
		rng:        cfg.Rand,
	}, nil
}

// Name returns the rail name.
func (r *Rail) Name() string { return r.name }

// NominalVoltage returns the design voltage.
func (r *Rail) NominalVoltage() float64 { return r.nominal }

// Voltage returns the present rail voltage.
func (r *Rail) Voltage() float64 { return r.voltage }

// SetVoltage is called by the regulator each tick.
func (r *Rail) SetVoltage(v float64) { r.voltage = v }

// Current returns the total rail current computed on the last Step, in
// amps.
func (r *Rail) Current() float64 { return r.current }

// Power returns the instantaneous rail power in watts (V · I, Eq. 2).
func (r *Rail) Power() float64 { return r.voltage * r.current }

// StaticCurrent returns the rail's always-on current component.
func (r *Rail) StaticCurrent() float64 { return r.static }

// Attach adds a source to the rail. Attaching the same source twice is
// rejected so aggregate current cannot silently double-count.
func (r *Rail) Attach(s Source) error {
	if s == nil {
		return fmt.Errorf("power: rail %s: nil source", r.name)
	}
	for _, have := range r.sources {
		if have == s {
			return fmt.Errorf("power: rail %s: source %s already attached", r.name, s.SourceName())
		}
	}
	r.sources = append(r.sources, s)
	return nil
}

// MustAttach is Attach for static wiring; it panics on error.
func (r *Rail) MustAttach(s Source) {
	if err := r.Attach(s); err != nil {
		panic(err)
	}
}

// Sources returns the number of attached sources.
func (r *Rail) Sources() int { return len(r.sources) }

// Step implements sim.Steppable: it re-sums the rail current for this
// tick. Negative totals (possible only through pathological noise draws)
// are clamped to zero, as a physical rail never sources current back.
func (r *Rail) Step(now, dt time.Duration) {
	total := r.static
	for _, s := range r.sources {
		total += s.Current()
	}
	if r.noiseSigma > 0 {
		total += r.rng.NormFloat64() * r.noiseSigma
	}
	if total < 0 {
		total = 0
	}
	r.current = total
}

// ActivityModel converts a switching-activity level (a count of actively
// toggling logic elements) into dynamic current, using the standard CMOS
// dynamic-power relation P = α·C·V²·f per element, hence I = α·C·V·f.
type ActivityModel struct {
	// CapPerElement is the effective switched capacitance per element in
	// farads (includes the activity factor α).
	CapPerElement float64
	// ClockHz is the toggle clock frequency.
	ClockHz float64
}

// CurrentFor returns the dynamic current in amps drawn by n active
// elements on a rail at voltage v.
func (m ActivityModel) CurrentFor(n float64, v float64) float64 {
	if n <= 0 {
		return 0
	}
	return m.CapPerElement * m.ClockHz * v * n
}

// PowerFor returns the dynamic power in watts for n active elements at
// voltage v.
func (m ActivityModel) PowerFor(n float64, v float64) float64 {
	return m.CurrentFor(n, v) * v
}
