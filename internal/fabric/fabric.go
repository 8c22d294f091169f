// Package fabric models the programmable logic (PL) of an ARM-FPGA SoC.
//
// A Fabric owns a device's resource budget (LUTs, flip-flops, DSP
// blocks, BRAM) and a grid of clock regions. Victim and sensor circuits
// are placed onto the fabric; each simulation tick the fabric steps every
// placed circuit, sums their switching activity, and converts it into
// dynamic current on the PL supply rail via a CMOS activity model.
//
// The fabric also tracks per-region activity so that placed sensor
// circuits (e.g. the ring oscillators of internal/ro) can observe a local
// droop component on top of the global rail voltage — the spatial
// -proximity effect the paper's RO baseline averages out by distributing
// oscillators across the die.
package fabric

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/power"
)

// Resources counts PL primitives.
type Resources struct {
	LUTs int
	FFs  int
	DSPs int
	// BRAMKb is block RAM capacity in kilobits.
	BRAMKb int
}

// Add returns the componentwise sum of r and s.
func (r Resources) Add(s Resources) Resources {
	return Resources{r.LUTs + s.LUTs, r.FFs + s.FFs, r.DSPs + s.DSPs, r.BRAMKb + s.BRAMKb}
}

// Fits reports whether r fits within budget b.
func (r Resources) Fits(b Resources) bool {
	return r.LUTs <= b.LUTs && r.FFs <= b.FFs && r.DSPs <= b.DSPs && r.BRAMKb <= b.BRAMKb
}

// String renders the resource vector compactly.
func (r Resources) String() string {
	return fmt.Sprintf("%d LUT / %d FF / %d DSP / %d Kb BRAM", r.LUTs, r.FFs, r.DSPs, r.BRAMKb)
}

// Device describes an FPGA part.
type Device struct {
	// Name of the part, e.g. "XCZU9EG" (the ZCU102's device).
	Name string
	// Total PL resources.
	Total Resources
	// ClockHz is the fabric clock the experiments run at.
	ClockHz float64
	// Rows and Cols define the clock-region grid.
	Rows, Cols int
}

// ZU9EG is the Zynq UltraScale+ device on the ZCU102 evaluation board,
// with the resource counts quoted in the paper's evaluation setup:
// 274,080 LUTs, 548,160 flip-flops, 2,520 DSP blocks, fabric at 300 MHz.
func ZU9EG() Device {
	return Device{
		Name:    "XCZU9EG",
		Total:   Resources{LUTs: 274080, FFs: 548160, DSPs: 2520, BRAMKb: 32100},
		ClockHz: 300e6,
		Rows:    6,
		Cols:    5,
	}
}

// Circuit is a piece of logic deployed on the fabric.
//
// Circuits are stepped by the fabric (not registered with the engine
// directly), so a circuit's ActiveElements is always current when the
// fabric aggregates activity within the same tick.
type Circuit interface {
	// CircuitName identifies the circuit.
	CircuitName() string
	// Utilization returns the PL resources the circuit occupies.
	Utilization() Resources
	// Step advances the circuit's internal state by one tick.
	Step(now, dt time.Duration)
	// ActiveElements returns the equivalent number of logic elements
	// actively toggling this tick. The fabric multiplies this by the
	// per-element switched capacitance to obtain dynamic current.
	ActiveElements() float64
}

// Region addresses one clock region on the grid.
type Region struct{ Row, Col int }

// placement records where a circuit sits.
type placement struct {
	circuit Circuit
	regions []Region
}

// Fabric is a device with circuits placed on it. It implements
// power.Source (attach it to the PL rail) and sim.Steppable.
type Fabric struct {
	dev    Device
	model  power.ActivityModel
	volts  func() float64
	placed []placement
	used   Resources

	current       float64
	totalActivity float64

	// shares[i] is placed[i]'s activity per region over the last
	// completed tick; nextShares is being filled by the tick in
	// progress. regionMap is built from shares by the first RegionMap
	// call after a Step that changed a share, or after a Place
	// (regionMapBuilt). regionMapGen counts those changes.
	shares, nextShares []float64
	regionMap          [][]float64
	regionMapBuilt     bool
	regionMapGen       uint64
}

// Config configures a Fabric.
type Config struct {
	// Device is the FPGA part. Required (non-empty name, positive totals).
	Device Device
	// CapPerElement is the effective switched capacitance per active
	// logic element, in farads.
	CapPerElement float64
	// Voltage returns the present PL rail voltage; usually rail.Voltage.
	// Required.
	Voltage func() float64
}

// New validates cfg and returns an empty fabric.
func New(cfg Config) (*Fabric, error) {
	d := cfg.Device
	if d.Name == "" {
		return nil, errors.New("fabric: device needs a name")
	}
	if d.Total.LUTs <= 0 || d.Total.FFs <= 0 {
		return nil, fmt.Errorf("fabric: device %s has no logic resources", d.Name)
	}
	if d.ClockHz <= 0 {
		return nil, fmt.Errorf("fabric: device %s has non-positive clock", d.Name)
	}
	if d.Rows <= 0 || d.Cols <= 0 {
		return nil, fmt.Errorf("fabric: device %s has empty region grid", d.Name)
	}
	if cfg.CapPerElement <= 0 {
		return nil, errors.New("fabric: non-positive per-element capacitance")
	}
	if cfg.Voltage == nil {
		return nil, errors.New("fabric: missing voltage probe")
	}
	f := &Fabric{
		dev:   d,
		model: power.ActivityModel{CapPerElement: cfg.CapPerElement, ClockHz: d.ClockHz},
		volts: cfg.Voltage,
	}
	f.regionMap = make([][]float64, d.Rows)
	for i := range f.regionMap {
		f.regionMap[i] = make([]float64, d.Cols)
	}
	return f, nil
}

// Device returns the fabric's device description.
func (f *Fabric) Device() Device { return f.dev }

// Used returns the resources consumed by placed circuits.
func (f *Fabric) Used() Resources { return f.used }

// Free returns the remaining resources.
func (f *Fabric) Free() Resources {
	t := f.dev.Total
	u := f.used
	return Resources{t.LUTs - u.LUTs, t.FFs - u.FFs, t.DSPs - u.DSPs, t.BRAMKb - u.BRAMKb}
}

// SpreadEvenly is a Place helper meaning "occupy every clock region".
func (f *Fabric) SpreadEvenly() []Region {
	rs := make([]Region, 0, f.dev.Rows*f.dev.Cols)
	for r := 0; r < f.dev.Rows; r++ {
		for c := 0; c < f.dev.Cols; c++ {
			rs = append(rs, Region{r, c})
		}
	}
	return rs
}

// Place deploys a circuit onto the given regions. The circuit's
// utilization must fit in the remaining budget, mirroring a real
// place-and-route failing on an over-full device.
func (f *Fabric) Place(c Circuit, regions []Region) error {
	if c == nil {
		return errors.New("fabric: nil circuit")
	}
	if len(regions) == 0 {
		return fmt.Errorf("fabric: circuit %s placed on no regions", c.CircuitName())
	}
	for _, r := range regions {
		if r.Row < 0 || r.Row >= f.dev.Rows || r.Col < 0 || r.Col >= f.dev.Cols {
			return fmt.Errorf("fabric: region (%d,%d) outside %dx%d grid",
				r.Row, r.Col, f.dev.Rows, f.dev.Cols)
		}
	}
	for _, p := range f.placed {
		if p.circuit == c {
			return fmt.Errorf("fabric: circuit %s already placed", c.CircuitName())
		}
	}
	need := f.used.Add(c.Utilization())
	if !need.Fits(f.dev.Total) {
		return fmt.Errorf("fabric: circuit %s does not fit: need %v, device has %v",
			c.CircuitName(), need, f.dev.Total)
	}
	f.used = need
	f.placed = append(f.placed, placement{circuit: c, regions: append([]Region(nil), regions...)})
	f.shares = append(f.shares, 0)
	f.nextShares = append(f.nextShares, 0)
	f.invalidateRegionMap()
	return nil
}

// MustPlace is Place for static designs; it panics on error.
func (f *Fabric) MustPlace(c Circuit, regions []Region) {
	if err := f.Place(c, regions); err != nil {
		panic(err)
	}
}

// Circuits returns the number of placed circuits.
func (f *Fabric) Circuits() int { return len(f.placed) }

// Step implements sim.Steppable: advance every placed circuit, then
// recompute aggregate activity and the fabric's dynamic current at the
// present rail voltage.
//
// Per-region activity is double-buffered: while circuits step, their
// RegionMap reads see the previous tick's completed map (a sensor
// circuit observing its electrical neighbourhood always sees settled
// state), and the shares recorded this tick become visible at the end of
// Step. The map itself is built only when something reads it, and a
// built map is kept while every share repeats the previous tick's bit
// for bit: summing the same bits in the same order gives the same map.
func (f *Fabric) Step(now, dt time.Duration) {
	total := 0.0
	changed := false
	for i, p := range f.placed {
		p.circuit.Step(now, dt)
		a := p.circuit.ActiveElements()
		total += a
		s := a / float64(len(p.regions))
		changed = changed || math.Float64bits(s) != math.Float64bits(f.shares[i])
		f.nextShares[i] = s
	}
	f.shares, f.nextShares = f.nextShares, f.shares
	if changed {
		f.invalidateRegionMap()
	}
	f.totalActivity = total
	f.current = f.model.CurrentFor(total, f.volts())
}

// invalidateRegionMap marks the region map stale after a share changed
// or a circuit was placed.
func (f *Fabric) invalidateRegionMap() {
	f.regionMapBuilt = false
	f.regionMapGen++
}

// buildRegionMap sums the last completed tick's shares into the region
// map, adding them in placement order from zero: the same float
// operations, in the same order, as accumulating the map during Step.
func (f *Fabric) buildRegionMap() {
	for _, row := range f.regionMap {
		for j := range row {
			row[j] = 0
		}
	}
	for i, p := range f.placed {
		for _, r := range p.regions {
			f.regionMap[r.Row][r.Col] += f.shares[i]
		}
	}
	f.regionMapBuilt = true
}

// SourceName implements power.Source.
func (f *Fabric) SourceName() string { return "fabric:" + f.dev.Name }

// Current implements power.Source: the PL dynamic current in amps.
func (f *Fabric) Current() float64 { return f.current }

// TotalActivity returns this tick's aggregate toggling-element count.
func (f *Fabric) TotalActivity() float64 { return f.totalActivity }

// RegionMap returns the last completed tick's activity per clock
// region, indexed [Row][Col]. The map belongs to the fabric: read it,
// do not modify or keep it across ticks.
func (f *Fabric) RegionMap() [][]float64 {
	if !f.regionMapBuilt {
		f.buildRegionMap()
	}
	return f.regionMap
}

// RegionMapGen returns the region map's generation: it moves whenever a
// Step changes a circuit's share or a Place adds one, so while it holds
// still RegionMap returns the same values. A reader that derives state
// from the map re-reads the map only when the generation moves.
func (f *Fabric) RegionMapGen() uint64 { return f.regionMapGen }
