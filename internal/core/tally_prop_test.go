package core

// Exactness suite for the engine tally: the read path's counters
// (sysfs.reads, sysfs.read_bytes, sysfs.reads.<attr>,
// ina226.register_reads, ina226.conversions, trace.samples_recorded,
// sim.ticks) count on the board engine's tally and publish when a run
// returns. A random program of runs, recorders added mid-program,
// reads between runs (bound files, a Sampler, discovery) and runs
// whose step panics is played on a ZCU102, and after every op each
// counter's delta since the program began must equal what the test
// counted itself: its wrapped probes' calls and bytes, discovery's
// reads, the change in Σ Device.Updates(), the recorders' samples and
// the ticks the engine advanced. Checking after every op also pins
// "at once": a read between runs shows before the next run.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/check"
	"repro/internal/hwmon"
	"repro/internal/obs"
	"repro/internal/sysfs"
	"repro/internal/trace"
)

type tallyOpKind int

const (
	tallyRun      tallyOpKind = iota // run N ticks
	tallyRecord                      // register a recorder on channel N every M ticks
	tallyRead                        // read channel N between runs
	tallySample                      // Sampler.Sample: one interval's run, then a read
	tallyDiscover                    // discovery between runs
	tallyPanic                       // run N ticks; a step panics at tick M
)

var tallyOpNames = [...]string{"run", "record", "read", "sample", "discover", "panic"}

type tallyOp struct {
	Kind tallyOpKind
	N, M int
}

func (o tallyOp) String() string { return fmt.Sprintf("%s(%d,%d)", tallyOpNames[o.Kind], o.N, o.M) }

// tallyChannels are the channels a program reads: the FPGA sensor,
// stepped on the tick; a PS sensor, whose read replays its lazy chain;
// a deferred misc-rail sensor.
var tallyChannels = []Channel{
	{Label: board.SensorFPGA, Kind: Current},
	{Label: board.SensorFPGA, Kind: Power},
	{Label: board.SensorCPUFull, Kind: Current},
	{Label: "ina226_u78", Kind: Voltage},
}

// tallyOpWeights draws runs and recorders most often, so most programs
// record samples.
var tallyOpWeights = []tallyOpKind{tallyRun, tallyRun, tallyRun, tallyRecord, tallyRecord,
	tallyRead, tallySample, tallyDiscover, tallyPanic}

var tallyOps = check.SliceOf(check.Gen[tallyOp]{
	Generate: func(r *rand.Rand, _ int) tallyOp {
		o := tallyOp{Kind: tallyOpWeights[r.Intn(len(tallyOpWeights))]}
		switch o.Kind {
		case tallyRun:
			o.N = 1 + r.Intn(200)
		case tallyRecord:
			o.N, o.M = r.Intn(len(tallyChannels)), 1+r.Intn(4)
		case tallyRead:
			o.N = r.Intn(len(tallyChannels))
		case tallyPanic:
			o.N = 1 + r.Intn(100)
			o.M = 1 + r.Intn(o.N)
		}
		return o
	},
	Describe: tallyOp.String,
}, 1, 16)

type tallyProgram struct {
	Seed int64
	Ops  []tallyOp
}

var tallyPrograms = check.Gen[tallyProgram]{
	Generate: func(r *rand.Rand, size int) tallyProgram {
		return tallyProgram{Seed: 1 + r.Int63n(1<<20), Ops: tallyOps.Generate(r, size)}
	},
	Shrink: func(p tallyProgram) []tallyProgram {
		var out []tallyProgram
		for _, ops := range tallyOps.Shrink(p.Ops) {
			out = append(out, tallyProgram{p.Seed, ops})
		}
		return out
	},
	Describe: func(p tallyProgram) string {
		return fmt.Sprintf("seed=%d ops=%s", p.Seed, tallyOps.Describe(p.Ops))
	},
}

// tallyCounters are the counters the suite checks, in report order.
var tallyCounters = []string{
	"sim.ticks", "sysfs.reads", "sysfs.read_bytes",
	"sysfs.reads.curr1_input", "sysfs.reads.power1_input", "sysfs.reads.in1_input",
	"sysfs.reads.name", "sysfs.reads.label",
	"ina226.register_reads", "ina226.conversions", "trace.samples_recorded",
}

func tallyValues() []int64 {
	snap := obs.Default.Snapshot()
	out := make([]int64, len(tallyCounters))
	for i, name := range tallyCounters {
		out[i] = snap.Counter(name)
	}
	return out
}

// tallyRig is a program's board and the events the test counted on it.
type tallyRig struct {
	b         *board.SoC
	attacker  *Attacker
	sampler   *Sampler
	recorders []*trace.Recorder
	steps     int // engine parts the program registered

	reads    map[string]int64 // successful reads per attribute
	bytes    int64
	updates0 uint64
	now0     time.Duration
}

// countingProbe reads ch through a bound file, as trace.SysfsProbe
// does, and counts each successful read and its bytes on the rig.
func (g *tallyRig) countingProbe(c *check.T, ch Channel) func() (float64, error) {
	info := g.sensor(c, ch.Label)
	attr, scale, err := ch.Kind.attr()
	if err != nil {
		c.Fatalf("%v", err)
	}
	f := g.b.Sysfs().Bind(info.Dir + "/" + attr)
	return func() (float64, error) {
		s, err := f.Read(sysfs.Nobody)
		if err != nil {
			return 0, err
		}
		g.reads[attr]++
		g.bytes += int64(len(s))
		n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		return float64(n) * scale, err
	}
}

// discover runs the attacker's discovery and counts its reads.
func (g *tallyRig) discover(c *check.T) []SensorInfo {
	sensors, err := g.attacker.Discover()
	if err != nil {
		c.Fatalf("discover: %v", err)
	}
	g.countDiscovery()
	return sensors
}

// countDiscovery counts one discovery's reads: every hwmon entry's
// name and label, each with its newline.
func (g *tallyRig) countDiscovery() {
	for _, e := range g.b.Hwmon().Entries() {
		g.reads["name"]++
		g.reads["label"]++
		g.bytes += int64(len(hwmon.DriverName) + 1 + len(e.Label) + 1)
	}
}

func (g *tallyRig) sensor(c *check.T, label string) SensorInfo {
	for _, s := range g.discover(c) {
		if s.Label == label {
			return s
		}
	}
	c.Fatalf("no sensor %s", label)
	return SensorInfo{}
}

func (g *tallyRig) updates() uint64 {
	var n uint64
	for _, e := range g.b.Hwmon().Entries() {
		n += e.Device.Updates()
	}
	return n
}

// want returns the deltas the rig counted, in tallyCounters order.
func (g *tallyRig) want() []int64 {
	var samples int64
	for _, r := range g.recorders {
		tr, _ := r.Trace()
		samples += int64(len(tr.Samples))
	}
	r := g.reads
	return []int64{
		int64((g.b.Engine().Now() - g.now0) / board.Step),
		r["curr1_input"] + r["power1_input"] + r["in1_input"] + r["name"] + r["label"],
		g.bytes,
		r["curr1_input"], r["power1_input"], r["in1_input"],
		r["name"], r["label"],
		r["curr1_input"] + r["power1_input"] + r["in1_input"],
		int64(g.updates() - g.updates0),
		samples,
	}
}

// panicStep panics at its at-th step, once.
type panicStep struct{ at, n int }

func (p *panicStep) Step(now, dt time.Duration) {
	if p.n++; p.n == p.at {
		panic("tally suite: planted step failure")
	}
}

// tallyMutant names a defect the suite must catch: "" is the engine as
// it is; "no-publish" never publishes a run's counts; "publish-twice"
// publishes them a second time. The mutants act on the program's runs
// (a Sampler's run is left alone), panicking ones included.
type tallyMutant string

// run advances the board by d as the mutant would.
func run(b *board.SoC, d time.Duration, m tallyMutant) {
	if m == "" {
		b.Run(d)
		return
	}
	before := obs.Default.Snapshot()
	defer func() {
		after := obs.Default.Snapshot()
		k := int64(1)
		if m == "no-publish" {
			k = -1
		}
		for _, name := range tallyCounters[1:] { // sim.ticks alone would give them away
			obs.C(name).Add(k * (after.Counter(name) - before.Counter(name)))
		}
	}()
	b.Run(d)
}

func tallyExact(m tallyMutant) func(*check.T, tallyProgram) {
	return func(c *check.T, p tallyProgram) {
		published := tallyValues()
		b, err := board.NewZCU102(board.Config{Seed: p.Seed})
		if err != nil {
			c.Fatalf("board: %v", err)
		}
		attacker, err := NewAttacker(b.Sysfs(), sysfs.Nobody)
		if err != nil {
			c.Fatalf("%v", err)
		}
		g := &tallyRig{b: b, attacker: attacker, reads: map[string]int64{}}
		g.updates0, g.now0 = g.updates(), b.Engine().Now()
		compare := func(step string) {
			got, want := tallyValues(), g.want()
			for i, name := range tallyCounters {
				if d := got[i] - published[i]; d != want[i] {
					c.Fatalf("after %s: %s moved by %d, the test counted %d", step, name, d, want[i])
				}
			}
		}
		g.discover(c) // before the first run
		compare("discovery before the first run")
		ch := tallyChannels[int(p.Seed)%len(tallyChannels)]
		if g.sampler, err = NewSampler(b, attacker, ch, 2*time.Millisecond); err != nil {
			c.Fatalf("sampler: %v", err)
		}
		g.countDiscovery() // NewSampler resolves its probe by one discovery
		compare("NewSampler's discovery")
		for i, o := range p.Ops {
			step := fmt.Sprintf("op %d %v", i, o)
			switch o.Kind {
			case tallyRun:
				run(b, time.Duration(o.N)*board.Step, m)
			case tallyRecord:
				rec, err := trace.NewRecorder(time.Duration(o.M)*board.Step, g.countingProbe(c, tallyChannels[o.N]))
				if err != nil {
					c.Fatalf("%v", err)
				}
				g.steps++
				b.Engine().MustRegister(fmt.Sprintf("recorder/%d", g.steps), rec)
				g.recorders = append(g.recorders, rec)
			case tallyRead:
				if _, err := g.countingProbe(c, tallyChannels[o.N])(); err != nil {
					c.Fatalf("%s: %v", step, err)
				}
			case tallySample:
				v, err := g.sampler.Sample(context.Background())
				if err != nil {
					c.Fatalf("%s: %v", step, err)
				}
				attr, scale, _ := ch.Kind.attr()
				g.reads[attr]++
				g.bytes += int64(len(strconv.FormatInt(int64(math.Round(v/scale)), 10)) + 1)
			case tallyDiscover:
				g.discover(c)
			case tallyPanic:
				g.steps++
				b.Engine().MustRegister(fmt.Sprintf("panic/%d", g.steps), &panicStep{at: o.M})
				func() {
					defer func() {
						if recover() == nil {
							c.Fatalf("%s: no step panicked", step)
						}
					}()
					run(b, time.Duration(o.N)*board.Step, m)
				}()
			}
			compare(step)
			c.Classify(o.Kind == tallyPanic && len(g.recorders) > 0, "a recording run panicked")
		}
		c.Classify(g.want()[10] > 0, "samples recorded")
	}
}

func TestPropTallyExact(t *testing.T) {
	check.Forall(t, tallyPrograms, tallyExact(""))
}

// TestMutantTally requires the suite to catch an engine that never
// publishes a run's counts and one that publishes them twice.
func TestMutantTally(t *testing.T) {
	for _, m := range []tallyMutant{"no-publish", "publish-twice"} {
		t.Run(string(m), func(t *testing.T) {
			rep := check.Run(t.Name(), tallyPrograms, tallyExact(m), check.Iters(50))
			if rep.ConfigErr != "" {
				t.Fatal(rep.ConfigErr)
			}
			if !rep.Failed {
				t.Fatalf("mutant %s went unnoticed in %d programs", m, rep.Iters)
			}
			t.Logf("caught at program %d: %s", rep.FailIter, rep.Logs)
		})
	}
}
