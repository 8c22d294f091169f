package fabric

// Differential suite for the on-demand region map. The reference is
// the map Step used to accumulate eagerly: after each Step, zero every
// region and add each placement's activity/len(regions) to its regions
// in placement order. RegionActivity must return it bit for bit, and a
// reader circuit stepping inside the tick, placed anywhere among the
// writers, must see the previous tick's map.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/check"
)

// randCircuit toggles a fresh random, non-whole element count each tick,
// so the order of the region sums shows in their low bits.
type randCircuit struct {
	rng    *rand.Rand
	active float64
}

func (c *randCircuit) CircuitName() string        { return fmt.Sprintf("rand%p", c) }
func (c *randCircuit) Utilization() Resources     { return Resources{} }
func (c *randCircuit) Step(now, dt time.Duration) { c.active = c.rng.Float64() * 2e4 }
func (c *randCircuit) ActiveElements() float64    { return c.active }

// readerCircuit reads every region while it steps, as the RO bank does.
type readerCircuit struct {
	randCircuit
	f    *Fabric
	seen [][]float64
}

func (c *readerCircuit) Step(now, dt time.Duration) {
	c.randCircuit.Step(now, dt)
	c.seen = readRegions(c.f)
}

func readRegions(f *Fabric) [][]float64 {
	out := make([][]float64, f.dev.Rows)
	for r := range out {
		out[r] = make([]float64, f.dev.Cols)
		for col := range out[r] {
			a, err := f.RegionActivity(Region{r, col})
			if err != nil {
				panic(err)
			}
			out[r][col] = a
		}
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
// sits among them, and for each tick whether the map is read after it.
type layout struct {
	Seed     int64
	Writers  [][]Region
	ReaderAt int
	Reads    []bool
}

var layouts = check.Gen[layout]{
	Generate: func(r *rand.Rand, size int) layout {
		dev := ZU9EG()
		l := layout{Seed: r.Int63(), Writers: make([][]Region, 1+r.Intn(5))}
		for w := range l.Writers {
			// A random subset of the regions, in random order.
			cells := r.Perm(dev.Rows * dev.Cols)[:1+r.Intn(dev.Rows*dev.Cols)]
			rs := make([]Region, len(cells))
			for i, c := range cells {
				rs[i] = Region{c / dev.Cols, c % dev.Cols}
			}
			if r.Intn(3) == 0 {
				rs = append(rs, rs[r.Intn(len(rs))]) // one region twice
			}
			l.Writers[w] = rs
		}
		l.ReaderAt = r.Intn(len(l.Writers) + 1)
		l.Reads = make([]bool, 1+r.Intn(1+size/3))
		for i := range l.Reads {
			l.Reads[i] = r.Intn(2) == 0
		}
		return l
	},
	Describe: func(l layout) string {
		return fmt.Sprintf("seed=%d writers=%v readerAt=%d reads=%v", l.Seed, l.Writers, l.ReaderAt, l.Reads)
	},
}

func TestPropRegionActivityMatchesEager(t *testing.T) {
	check.Forall(t, layouts, func(ct *check.T, l layout) {
		f, err := New(Config{Device: ZU9EG(), CapPerElement: 1e-13, Voltage: func() float64 { return 0.85 }})
		if err != nil {
			ct.Fatalf("New: %v", err)
		}
		rng := rand.New(rand.NewSource(l.Seed))
		reader := &readerCircuit{randCircuit: randCircuit{rng: rng}, f: f}
		for w, rs := range l.Writers {
			if w == l.ReaderAt {
				f.MustPlace(reader, f.SpreadEvenly())
			}
			f.MustPlace(&randCircuit{rng: rng}, rs)
		}
		if l.ReaderAt == len(l.Writers) {
			f.MustPlace(reader, f.SpreadEvenly())
		}
		prev := eagerRegions(f) // all zero before the first tick
		for i, read := range l.Reads {
			f.Step(time.Duration(i)*time.Millisecond, time.Millisecond)
			if !sameRegions(reader.seen, prev) {
				ct.Fatalf("tick %d: reader saw %v, previous tick's map is %v", i, reader.seen, prev)
			}
			want := eagerRegions(f)
			if read {
				if got := readRegions(f); !sameRegions(got, want) {
					ct.Fatalf("tick %d: RegionActivity %v, eager map %v", i, got, want)
				}
			}
			prev = want
		}
		dup, subset := false, false
		for _, rs := range l.Writers {
			seen := map[Region]bool{}
			for _, r := range rs {
				dup = dup || seen[r]
				seen[r] = true
			}
			subset = subset || len(seen) < len(f.SpreadEvenly())
		}
		ct.Classify(dup, "region listed twice")
		ct.Classify(subset, "subset of the regions")
		ct.Classify(l.ReaderAt == 0, "reader first")
		ct.Classify(l.ReaderAt == len(l.Writers), "reader last")
	})
}
