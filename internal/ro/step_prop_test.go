package ro

// Differential suite for the windowed Bank. The reference steps every
// oscillator's frequency tick by tick, as the bank did before it summed
// the rail once per tick: per oscillator, a LocalActivity closure that
// bounds-checks the region and may fail, the frequency clamped at zero,
// and the tick's dt² added to the oscillator's jitter variance whenever
// it runs. Here the closure reads an eager region map that a circuit
// placed last on the fabric sums after every tick, independently of
// the fabric's kept map. At each sample the reference makes the bank's
// draws, one per oscillator from the same stream. On one fabric, next
// to a hot circuit on random regions and a power virus whose levels
// change mid-window, with dt changing and the rail at times collapsing
// below the point where loops stop, a deployed Bank and the reference
// must agree within one count at every sample, and in the running total.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/virus"
)

// refBank is the per-tick bank, kept as the reference.
type refBank struct {
	cfg                 Config
	localActivity       func(fabric.Region) (float64, error)
	regions             []fabric.Region
	cycles, jvar, carry []float64
	clamped, partial    int // oscillator-ticks that counted nothing; ticks that stopped some but not all
}

func newRefBank(cfg Config, localActivity func(fabric.Region) (float64, error)) *refBank {
	n := cfg.Count
	return &refBank{cfg: cfg, localActivity: localActivity,
		cycles: make([]float64, n), jvar: make([]float64, n), carry: make([]float64, n)}
}

func (b *refBank) CircuitName() string           { return "ro-reference" }
func (b *refBank) Utilization() fabric.Resources { return fabric.Resources{} }
func (b *refBank) ActiveElements() float64 {
	return float64(b.cfg.Count * b.cfg.UtilizationPerRO.LUTs)
}

func (b *refBank) Step(now, dt time.Duration) {
	sec := dt.Seconds()
	global := b.cfg.Volts()
	stopped := 0
	defer func() {
		b.clamped += stopped
		if stopped > 0 && stopped < len(b.cycles) {
			b.partial++
		}
	}()
	for i := range b.cycles {
		v := global
		if b.cfg.LocalDroopVoltsPerElement > 0 && len(b.regions) == len(b.cycles) {
			if act, err := b.localActivity(b.regions[i]); err == nil {
				v -= b.cfg.LocalDroopVoltsPerElement * act
			}
		}
		f := b.cfg.BaseHz * (1 + b.cfg.VoltSensitivity*(v-b.cfg.NominalVolts))
		if f <= 0 {
			stopped++
			continue
		}
		b.cycles[i] += f * sec
		b.jvar[i] += sec * sec
	}
}

func (b *refBank) Sample() []int {
	counts := make([]int, len(b.cycles))
	for i := range counts {
		inc := b.cycles[i]
		if b.cfg.JitterHz > 0 {
			inc += b.cfg.Rand.NormFloat64() * b.cfg.JitterHz * math.Sqrt(b.jvar[i])
		}
		if inc < 0 {
			inc = 0
		}
		p := b.carry[i] + inc
		counts[i] = int(math.Floor(p))
		b.carry[i] = p - float64(counts[i])
		b.cycles[i], b.jvar[i] = 0, 0
	}
	return counts
}

// eagerMap sums every other placement's activity per region after all
// of them have stepped, and serves the previous tick's sum to readers.
type eagerMap struct {
	dev        fabric.Device
	circuits   []fabric.Circuit
	regions    [][]fabric.Region
	prev, next [][]float64
}

func newEagerMap(dev fabric.Device) *eagerMap {
	grid := func() [][]float64 {
		m := make([][]float64, dev.Rows)
		for i := range m {
			m[i] = make([]float64, dev.Cols)
		}
		return m
	}
	return &eagerMap{dev: dev, prev: grid(), next: grid()}
}

func (m *eagerMap) track(c fabric.Circuit, rs []fabric.Region) {
	m.circuits = append(m.circuits, c)
	m.regions = append(m.regions, rs)
}

func (m *eagerMap) CircuitName() string           { return "eager-map" }
func (m *eagerMap) Utilization() fabric.Resources { return fabric.Resources{} }
func (m *eagerMap) ActiveElements() float64       { return 0 }

func (m *eagerMap) Step(now, dt time.Duration) {
	for _, row := range m.next {
		for j := range row {
			row[j] = 0
		}
	}
	for i, c := range m.circuits {
		share := c.ActiveElements() / float64(len(m.regions[i]))
		for _, r := range m.regions[i] {
			m.next[r.Row][r.Col] += share
		}
	}
	m.prev, m.next = m.next, m.prev
}

func (m *eagerMap) activity(r fabric.Region) (float64, error) {
	if r.Row < 0 || r.Row >= m.dev.Rows || r.Col < 0 || r.Col >= m.dev.Cols {
		return 0, fmt.Errorf("region (%d,%d) outside grid", r.Row, r.Col)
	}
	return m.prev[r.Row][r.Col], nil
}

// stepScenario is one run: the bank's geometry and noise, the hot
// circuit's regions, and the tick count; Seed drives the rest.
type stepScenario struct {
	Seed   int64
	Count  int
	Droop  float64
	Jitter float64
	Hot    []fabric.Region
	Ticks  int
}

var stepScenarios = check.Gen[stepScenario]{
	Generate: func(r *rand.Rand, size int) stepScenario {
		dev := fabric.ZU9EG()
		s := stepScenario{Seed: r.Int63(), Count: 1 + r.Intn(70), Ticks: 1 + r.Intn(1+size)}
		if r.Intn(4) != 0 {
			s.Droop = 1e-10 + r.Float64()*1e-8
		}
		if r.Intn(4) != 0 {
			s.Jitter = r.Float64() * 1e5
		}
		for _, c := range r.Perm(dev.Rows * dev.Cols)[:1+r.Intn(4)] {
			s.Hot = append(s.Hot, fabric.Region{Row: c / dev.Cols, Col: c % dev.Cols})
		}
		return s
	},
	Describe: func(s stepScenario) string {
		return fmt.Sprintf("seed=%d count=%d droop=%g jitter=%g hot=%v ticks=%d",
			s.Seed, s.Count, s.Droop, s.Jitter, s.Hot, s.Ticks)
	},
}

func TestPropStepMatchesReference(t *testing.T) {
	check.Forall(t, stepScenarios, func(ct *check.T, s stepScenario) {
		volts := 0.85
		fab, err := fabric.New(fabric.Config{
			Device: fabric.ZU9EG(), CapPerElement: 1e-13, Voltage: func() float64 { return volts },
		})
		if err != nil {
			ct.Fatalf("fabric.New: %v", err)
		}
		cfg := Config{
			Count: s.Count, NominalVolts: 0.85, VoltSensitivity: 1.27,
			Volts: func() float64 { return volts }, LocalDroopVoltsPerElement: s.Droop,
			JitterHz: s.Jitter, Rand: sim.NewRand(s.Seed),
		}
		bank, err := New(cfg)
		if err != nil {
			ct.Fatalf("New: %v", err)
		}
		refCfg := bank.cfg // defaults filled in
		refCfg.Rand = sim.NewRand(s.Seed)
		eager := newEagerMap(fab.Device())
		ref := newRefBank(refCfg, eager.activity)
		array, err := virus.New(virus.Config{Groups: 20})
		if err != nil {
			ct.Fatalf("virus.New: %v", err)
		}
		hot := &hotCircuit{}

		// Place the four circuits in a random order, the eager map last.
		rng := rand.New(rand.NewSource(s.Seed))
		all := fab.SpreadEvenly()
		for _, k := range rng.Perm(4) {
			switch k {
			case 0:
				if err := bank.Deploy(fab); err != nil {
					ct.Fatalf("Deploy: %v", err)
				}
				eager.track(bank, all)
			case 1:
				fab.MustPlace(ref, all)
				ref.regions = make([]fabric.Region, s.Count)
				for i := range ref.regions {
					ref.regions[i] = all[i%len(all)]
				}
				eager.track(ref, all)
			case 2:
				fab.MustPlace(array, all)
				eager.track(array, all)
			case 3:
				fab.MustPlace(hot, s.Hot)
				eager.track(hot, s.Hot)
			}
		}
		fab.MustPlace(eager, all[:1])

		levels, nudges, dts, samples, collapses := 0, 0, 0, 0, 0
		totals := make([]int, s.Count) // per oscillator, bank minus reference
		dt := 500 * time.Microsecond
		for tick := 0; tick < s.Ticks; tick++ {
			if rng.Intn(5) == 0 {
				if err := array.SetActiveGroups(rng.Intn(array.Groups() + 1)); err != nil {
					ct.Fatalf("SetActiveGroups: %v", err)
				}
				levels++
			}
			switch rng.Intn(6) {
			case 0:
				hot.active = rng.Float64() * 1e5
			case 1:
				hot.active = math.Nextafter(hot.active, math.Inf(1))
				nudges++
			}
			switch rng.Intn(12) {
			case 0, 1, 2:
				volts = 0.85 - 0.01*rng.Float64()
			case 3:
				// Around the point where the loops stop, 0.85 − 1/1.27 V
				// ≈ 62.6 mV: below it every oscillator stops, just above
				// it the local droop stops some but not others.
				volts = 0.0621 + 0.0015*rng.Float64()
				collapses++
			}
			if rng.Intn(8) == 0 {
				dt = time.Duration(1+rng.Intn(50)) * 20 * time.Microsecond
				dts++
			}
			fab.Step(time.Duration(tick)*time.Millisecond, dt)
			if rng.Intn(4) != 0 && tick != s.Ticks-1 {
				continue
			}
			got, want := bank.Sample(), ref.Sample()
			samples++
			for i := range got {
				d := got[i] - want[i]
				totals[i] += d
				if d < -1 || d > 1 || totals[i] < -1 || totals[i] > 1 {
					ct.Fatalf("tick %d, RO %d: count %d, reference %d; running totals %+d apart",
						tick, i, got[i], want[i], totals[i])
				}
			}
		}
		ct.Classify(s.Droop > 0, "local droop")
		ct.Classify(s.Jitter > 0, "jitter")
		ct.Classify(levels > 0, "level changed mid-run")
		ct.Classify(nudges > 0, "low-bit load change")
		ct.Classify(dts > 0, "dt changed")
		ct.Classify(samples > 1, "several samples")
		ct.Classify(collapses > 0, "rail near the stop point")
		ct.Classify(ref.clamped > 0, "oscillator stopped")
		ct.Classify(ref.partial > 0, "some oscillators stopped")
	})
}
