package fabric

// Differential suite for the on-demand, kept region map. The reference
// is the map Step used to accumulate eagerly: after each Step, zero
// every region and add each placement's activity/len(regions) to its
// regions in placement order. RegionMap must return it bit for bit, and
// a reader circuit stepping inside the tick, placed anywhere among the
// writers, must see the previous tick's map. Circuits hold their
// activity for random runs of ticks, so the fabric keeps a built map
// across ticks, and change it wholesale, by a few ulps, or back to an
// earlier count, so a map kept across a change in the low bits, or one
// checked against the wrong tick's shares, shows.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/check"
)

// holdCircuit holds a random, non-whole element count for random runs
// of ticks. When it changes the count it draws a fresh one, nudges the
// present one up by one to four ulps, or returns to the count it held
// before its last change.
type holdCircuit struct {
	rng     *rand.Rand
	change  float64 // per-tick probability of a change
	active  float64
	before  float64 // the count held before the last change
	stepped bool
	nudges  int
	reverts int
	holds   int
}

func newHoldCircuit(rng *rand.Rand) *holdCircuit {
	return &holdCircuit{rng: rng, change: []float64{0.05, 0.3, 1}[rng.Intn(3)]}
}

func (c *holdCircuit) CircuitName() string    { return fmt.Sprintf("hold%p", c) }
func (c *holdCircuit) Utilization() Resources { return Resources{} }
func (c *holdCircuit) ActiveElements() float64 {
	return c.active
}

func (c *holdCircuit) Step(now, dt time.Duration) {
	if c.stepped && c.rng.Float64() >= c.change {
		c.holds++
		return
	}
	prev := c.active
	switch k := c.rng.Intn(3); {
	case !c.stepped || k == 0:
		c.active = c.rng.Float64() * 2e4
	case k == 1:
		for n := 1 + c.rng.Intn(4); n > 0; n-- {
			c.active = math.Nextafter(c.active, math.Inf(1))
		}
		c.nudges++
	default:
		c.active = c.before
		c.reverts++
	}
	c.before = prev
	c.stepped = true
}

// readerCircuit reads the region map while it steps, as the RO bank
// does.
type readerCircuit struct {
	*holdCircuit
	f    *Fabric
	seen [][]float64
}

func (c *readerCircuit) Step(now, dt time.Duration) {
	c.holdCircuit.Step(now, dt)
	c.seen = readRegions(c.f)
}

// readRegions copies the fabric's region map.
func readRegions(f *Fabric) [][]float64 {
	out := make([][]float64, f.dev.Rows)
	for r, row := range f.RegionMap() {
		out[r] = append([]float64(nil), row...)
	}
	return out
}

// eagerRegions is the reference: the map as Step used to build it.
func eagerRegions(f *Fabric) [][]float64 {
	m := make([][]float64, f.dev.Rows)
	for i := range m {
		m[i] = make([]float64, f.dev.Cols)
	}
	for _, p := range f.placed {
		share := p.circuit.ActiveElements() / float64(len(p.regions))
		for _, r := range p.regions {
			m[r.Row][r.Col] += share
		}
	}
	return m
}

func sameRegions(a, b [][]float64) bool {
	for i := range a {
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// layout is one scenario: the writers' region lists, where the reader
// sits among them, an optional writer placed after LateAt ticks have
// run, and for each tick whether the map is read after it.
type layout struct {
	Seed     int64
	Writers  [][]Region
	ReaderAt int
	Late     []Region
	LateAt   int
	Reads    []bool
}

// randomRegions is a random subset of the device's regions in random
// order, sometimes with one region listed twice.
func randomRegions(r *rand.Rand) []Region {
	dev := ZU9EG()
	cells := r.Perm(dev.Rows * dev.Cols)[:1+r.Intn(dev.Rows*dev.Cols)]
	rs := make([]Region, len(cells))
	for i, c := range cells {
		rs[i] = Region{c / dev.Cols, c % dev.Cols}
	}
	if r.Intn(3) == 0 {
		rs = append(rs, rs[r.Intn(len(rs))])
	}
	return rs
}

var layouts = check.Gen[layout]{
	Generate: func(r *rand.Rand, size int) layout {
		l := layout{Seed: r.Int63(), Writers: make([][]Region, 1+r.Intn(5))}
		for w := range l.Writers {
			l.Writers[w] = randomRegions(r)
		}
		l.ReaderAt = r.Intn(len(l.Writers) + 1)
		l.Reads = make([]bool, 1+r.Intn(1+size/2))
		for i := range l.Reads {
			l.Reads[i] = r.Intn(2) == 0
		}
		if len(l.Reads) > 1 && r.Intn(2) == 0 {
			l.Late = randomRegions(r)
			l.LateAt = 1 + r.Intn(len(l.Reads)-1)
		}
		return l
	},
	Describe: func(l layout) string {
		return fmt.Sprintf("seed=%d writers=%v readerAt=%d late=%v lateAt=%d reads=%v",
			l.Seed, l.Writers, l.ReaderAt, l.Late, l.LateAt, l.Reads)
	},
}

// regionMapMatchesEager is the property, with the fabric stepped by
// step: Fabric.Step itself, or a test double that wraps it in a wrong
// cache.
func regionMapMatchesEager(step func(f *Fabric, now, dt time.Duration)) func(*check.T, layout) {
	return func(ct *check.T, l layout) {
		f, err := New(Config{Device: ZU9EG(), CapPerElement: 1e-13, Voltage: func() float64 { return 0.85 }})
		if err != nil {
			ct.Fatalf("New: %v", err)
		}
		rng := rand.New(rand.NewSource(l.Seed))
		reader := &readerCircuit{holdCircuit: newHoldCircuit(rng), f: f}
		circuits := []*holdCircuit{reader.holdCircuit}
		for w, rs := range l.Writers {
			if w == l.ReaderAt {
				f.MustPlace(reader, f.SpreadEvenly())
			}
			c := newHoldCircuit(rng)
			circuits = append(circuits, c)
			f.MustPlace(c, rs)
		}
		if l.ReaderAt == len(l.Writers) {
			f.MustPlace(reader, f.SpreadEvenly())
		}
		prev := eagerRegions(f) // all zero before the first tick
		for i, read := range l.Reads {
			if l.Late != nil && i == l.LateAt {
				c := newHoldCircuit(rng)
				circuits = append(circuits, c)
				f.MustPlace(c, l.Late)
				if got := readRegions(f); !sameRegions(got, prev) {
					ct.Fatalf("after the placement before tick %d: RegionMap %v, eager map %v", i, got, prev)
				}
			}
			step(f, time.Duration(i)*time.Millisecond, time.Millisecond)
			if !sameRegions(reader.seen, prev) {
				ct.Fatalf("tick %d: reader saw %v, previous tick's map is %v", i, reader.seen, prev)
			}
			want := eagerRegions(f)
			if read {
				if got := readRegions(f); !sameRegions(got, want) {
					ct.Fatalf("tick %d: RegionMap %v, eager map %v", i, got, want)
				}
			}
			prev = want
		}
		dup, subset, nudged, reverted, held := false, false, false, false, false
		for _, rs := range append(l.Writers, l.Late) {
			seen := map[Region]bool{}
			for _, r := range rs {
				dup = dup || seen[r]
				seen[r] = true
			}
			subset = subset || len(rs) > 0 && len(seen) < len(f.SpreadEvenly())
		}
		for _, c := range circuits {
			nudged = nudged || c.nudges > 0
			reverted = reverted || c.reverts > 0
			held = held || c.holds > 0
		}
		ct.Classify(dup, "region listed twice")
		ct.Classify(subset, "subset of the regions")
		ct.Classify(l.ReaderAt == 0, "reader first")
		ct.Classify(l.ReaderAt == len(l.Writers), "reader last")
		ct.Classify(l.Late != nil, "placed after ticks ran")
		ct.Classify(nudged, "low-bit change")
		ct.Classify(reverted, "returned to an earlier count")
		ct.Classify(held, "activity held")
	}
}

func TestPropRegionActivityMatchesEager(t *testing.T) {
	check.Forall(t, layouts, regionMapMatchesEager((*Fabric).Step))
}

// TestMutantRegionMapKept wraps Step in two wrong caches and requires
// the property to notice each: one keeps a built map across every
// tick, the other keeps it while each share is within a relative 1e-12
// of the previous tick's instead of equal bit for bit.
func TestMutantRegionMapKept(t *testing.T) {
	for _, tc := range []struct {
		name string
		keep func(old, cur []float64) bool
	}{
		{"never-invalidated", func(old, cur []float64) bool { return true }},
		{"tolerance", func(old, cur []float64) bool {
			for i := range old {
				if math.Abs(cur[i]-old[i]) > 1e-12*math.Abs(old[i]) {
					return false
				}
			}
			return true
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			step := func(f *Fabric, now, dt time.Duration) {
				built := f.regionMapBuilt
				old := append([]float64(nil), f.shares...)
				f.Step(now, dt)
				if built && tc.keep(old, f.shares) {
					f.regionMapBuilt = true
				}
			}
			rep := check.Run(t.Name(), layouts, regionMapMatchesEager(step), check.Iters(200))
			if rep.ConfigErr != "" {
				t.Fatal(rep.ConfigErr)
			}
			if !rep.Failed {
				t.Fatalf("a region map kept by the %s cache went unnoticed in %d scenarios", tc.name, rep.Iters)
			}
			t.Logf("caught at scenario %d: %s", rep.FailIter, rep.Logs)
		})
	}
}
