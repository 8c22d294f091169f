package trace_test

// Differential suite for SysfsProbe: a probe holding a bound sysfs.File
// and reusing its last parse while the text repeats must read exactly
// what the path probe it replaced read, a ReadFile walk and a fresh
// parse on every call. Two boards built from one seed run the same
// random program of reads, sensor ticks, hwmon renumbers, root-only
// restrictions, attribute removals, fault-hook swaps and rewrites of a
// scripted attribute. One board reads through SysfsProbe, its twin
// through pathProbe; every read's value (bit for bit), error text and
// sysfs counter deltas must agree.

import (
	"fmt"
	"math"
	"math/rand"
	"path"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/check"
	"repro/internal/faults"
	"repro/internal/hwmon"
	"repro/internal/obs"
	"repro/internal/sysfs"
	"repro/internal/trace"
)

// pathProbe is the reference: walk the path and parse on every read.
func pathProbe(fsys *sysfs.FS, cred sysfs.Cred, p string, scale float64) func() (float64, error) {
	return func() (float64, error) {
		raw, err := fsys.ReadFile(cred, p)
		if err != nil {
			return 0, err
		}
		v, err := strconv.ParseInt(strings.TrimSpace(raw), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("trace: parse %s: %w", p, err)
		}
		return float64(v) * scale, nil
	}
}

// scriptedPath is an attribute whose text the program sets, so probes
// also meet strings that hwmon never renders. Its name makes it a
// measurement attribute, which the fault injector targets.
const scriptedPath = "devices/scripted/curr1_input"

// texts are the scripted attribute's contents: valid readings, and
// texts that start with the digits of one but do not parse.
var texts = []string{"12\n", "12x\n", " 12 \n", "12.5\n", "+12\n", "12 7\n", "-7\n", "", "\n", "0x12\n",
	"9223372036854775807\n", "9223372036854775808\n"}

// slots are the probes every program reads: stale-prone hwmon paths,
// one that exists only after a renumber, a root reader, an attribute
// that never parses, a directory, and the scripted attribute.
var slots = []struct {
	path  string
	scale float64
	cred  sysfs.Cred
}{
	{"class/hwmon/hwmon0/curr1_input", 1e-3, sysfs.Nobody},
	{"class/hwmon/hwmon0/curr1_input", 1e-3, sysfs.Root},
	{"class/hwmon/hwmon2/power1_input", 1e-6, sysfs.Nobody},
	{"class/hwmon/hwmon5/in1_input", 1e-3, sysfs.Nobody},
	{"class/hwmon/hwmon19/curr1_input", 1e-3, sysfs.Nobody},
	{"class/hwmon/hwmon1/name", 1, sysfs.Nobody},
	{"class/hwmon/hwmon1", 1, sysfs.Nobody},
	{scriptedPath, 1, sysfs.Nobody},
}

// probeCounters are the counters a read can move.
var probeCounters = []string{
	"sysfs.reads", "sysfs.read_bytes", "sysfs.denied", "sysfs.not_exist", "sysfs.read_faults",
	"sysfs.reads.curr1_input", "sysfs.reads.in1_input", "sysfs.reads.power1_input", "sysfs.reads.name",
	"faults.injected.sysfs_eio", "faults.injected.sysfs_eagain",
}

type probeOpKind int

const (
	opProbeRead probeOpKind = iota
	opProbeRun
	opProbeRenumber
	opProbeRestrict
	opProbeRemove
	opProbeFaults
	opProbeText
)

var probeOpNames = [...]string{"read", "run", "renumber", "restrict", "remove", "faults", "text"}

// probeOp is one step of a program. N is the probe slot (read), the
// tick count (run), the shift (renumber), the sensor (restrict,
// remove), on or off (faults), or the text, with len(texts) for
// removing the scripted attribute (text). Attr is the removed
// attribute.
type probeOp struct {
	Kind probeOpKind
	N    int
	Attr string
}

func (o probeOp) String() string {
	if o.Kind == opProbeRemove {
		return fmt.Sprintf("remove(%d/%s)", o.N, o.Attr)
	}
	return fmt.Sprintf("%s(%d)", probeOpNames[o.Kind], o.N)
}

var probeOps = check.SliceOf(check.Gen[probeOp]{
	Generate: func(r *rand.Rand, _ int) probeOp {
		// Reads are half of all ops, so a probe reads several times
		// between changes and between latches; the scripted attribute
		// gets a third of them and is rewritten as often as the tree
		// changes, so its probe meets every pair of texts.
		var o probeOp
		switch k := r.Intn(8); {
		case k < 4:
			o = probeOp{Kind: opProbeRead, N: min(r.Intn(len(slots)+3), len(slots)-1)}
		case k == 4:
			o = probeOp{Kind: opProbeText, N: r.Intn(len(texts) + 1)}
		case k == 5:
			o = probeOp{Kind: opProbeRun, N: 1 + r.Intn(12)}
		case k == 6:
			o = probeOp{Kind: opProbeFaults, N: r.Intn(2)}
		default:
			o = probeOp{Kind: []probeOpKind{opProbeRenumber, opProbeRestrict, opProbeRemove}[r.Intn(3)]}
			switch o.Kind {
			case opProbeRenumber:
				o.N = 1 + r.Intn(4)
			case opProbeRestrict:
				o.N = r.Intn(6)
			case opProbeRemove:
				o.N = r.Intn(6)
				o.Attr = []string{"curr1_input", "in1_input", "power1_input", "name"}[r.Intn(4)]
			}
		}
		return o
	},
}, 1, 80)

// probeProgram is one scenario: the board seed and the ops.
type probeProgram struct {
	Seed int64
	Ops  []probeOp
}

var probePrograms = check.Gen[probeProgram]{
	Generate: func(r *rand.Rand, size int) probeProgram {
		return probeProgram{Seed: 1 + r.Int63n(1<<20), Ops: probeOps.Generate(r, size)}
	},
	Shrink: func(p probeProgram) []probeProgram {
		var out []probeProgram
		for _, ops := range probeOps.Shrink(p.Ops) {
			out = append(out, probeProgram{Seed: p.Seed, Ops: ops})
		}
		return out
	},
	Describe: func(p probeProgram) string {
		return fmt.Sprintf("seed %d ops %s", p.Seed, probeOps.Describe(p.Ops))
	},
}

// probeTwin is one of the two boards with its probes and the scripted
// attribute's current text.
type probeTwin struct {
	b      *board.SoC
	probes []func() (float64, error)
	text   string
}

type probeMaker func(b *board.SoC, cred sysfs.Cred, p string, scale float64) func() (float64, error)

func newProbeTwin(c *check.T, seed int64, mk probeMaker) *probeTwin {
	// Sysfs read faults only: hotplug, scheduler and sensor faults stay
	// off, so every structural change is one the program makes.
	prof := faults.Profile{Name: "sysfs", SysfsErrorRate: 0.2, SysfsEIORatio: 0.5}
	b, err := board.NewZCU102(board.Config{Seed: seed, UpdateInterval: 2 * time.Millisecond, Faults: &prof})
	if err != nil {
		c.Fatalf("board: %v", err)
	}
	tw := &probeTwin{b: b}
	for _, s := range slots {
		tw.probes = append(tw.probes, mk(b, s.cred, s.path, s.scale))
	}
	return tw
}

// apply runs one non-read op and returns its error text.
func (tw *probeTwin) apply(o probeOp) string {
	fsys, hw := tw.b.Sysfs(), tw.b.Hwmon()
	entries := hw.Entries()
	var err error
	switch o.Kind {
	case opProbeRun:
		tw.b.Run(time.Duration(o.N) * board.Step)
	case opProbeRenumber:
		err = hw.Renumber(o.N)
	case opProbeRestrict:
		err = hw.RestrictToRoot(entries[o.N].Label)
	case opProbeRemove:
		err = fsys.Remove(entries[o.N].Attr(o.Attr))
	case opProbeFaults:
		if o.N == 0 {
			fsys.SetReadFault(nil)
		} else {
			fsys.SetReadFault(tw.b.FaultInjector().SysfsReadFault)
		}
	case opProbeText:
		present := fsys.Exists(scriptedPath)
		switch {
		case o.N == len(texts) && present:
			err = fsys.Remove(scriptedPath)
		case o.N < len(texts):
			tw.text = texts[o.N]
			if !present {
				err = fsys.AddAttr(scriptedPath, sysfs.Attr{Mode: sysfs.ModeRO, Show: func() (string, error) {
					return tw.text, nil
				}})
			}
		}
	}
	return errText(err)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// counterValues reads probeCounters.
func counterValues() []int64 {
	out := make([]int64, len(probeCounters))
	for i, name := range probeCounters {
		out[i] = obs.C(name).Value()
	}
	return out
}

// read calls probe i and returns its value, error text and the counter
// deltas it caused.
func (tw *probeTwin) read(i int) (float64, string, []int64) {
	before := counterValues()
	v, err := tw.probes[i]()
	after := counterValues()
	for k := range after {
		after[k] -= before[k]
	}
	return v, errText(err), after
}

// boundMatchesPath is the property: probes from mk against pathProbe.
func boundMatchesPath(mk probeMaker) func(*check.T, probeProgram) {
	return func(c *check.T, p probeProgram) {
		got := newProbeTwin(c, p.Seed, mk)
		want := newProbeTwin(c, p.Seed, func(b *board.SoC, cred sysfs.Cred, path string, scale float64) func() (float64, error) {
			return pathProbe(b.Sysfs(), cred, path, scale)
		})
		var ok, failed, renumbered, moved bool
		for i, o := range p.Ops {
			if o.Kind != opProbeRead {
				if g, w := got.apply(o), want.apply(o); g != w {
					c.Fatalf("op %d %v: error %q, reference %q", i, o, g, w)
				}
				renumbered = renumbered || o.Kind == opProbeRenumber
				continue
			}
			gv, gerr, gd := got.read(o.N)
			wv, werr, wd := want.read(o.N)
			if math.Float64bits(gv) != math.Float64bits(wv) || gerr != werr {
				c.Fatalf("op %d %v: read (%v, %q), reference (%v, %q)", i, o, gv, gerr, wv, werr)
			}
			for k := range gd {
				if gd[k] != wd[k] {
					c.Fatalf("op %d %v: %s moved by %d, reference %d", i, o, probeCounters[k], gd[k], wd[k])
				}
			}
			ok = ok || gerr == ""
			failed = failed || gerr != ""
			moved = moved || renumbered && gerr == "" && slots[o.N].path != scriptedPath
		}
		c.Classify(ok, "a read succeeded")
		c.Classify(failed, "a read failed")
		c.Classify(moved, "read a renumbered path")
	}
}

func TestPropBoundProbeMatchesPathProbe(t *testing.T) {
	check.Forall(t, probePrograms, boundMatchesPath(func(b *board.SoC, cred sysfs.Cred, p string, scale float64) func() (float64, error) {
		return trace.SysfsProbe(b.Sysfs(), cred, p, scale)
	}))
}

// sensorBoundProbe never walks its path again after its first
// successful read: it keeps reading the sensor the path named then,
// wherever a renumber moves it, as a file that kept its first node
// would.
func sensorBoundProbe(b *board.SoC, cred sysfs.Cred, p string, scale float64) func() (float64, error) {
	dir, attr := path.Split(p)
	var bound *hwmon.Entry
	return func() (float64, error) {
		if bound != nil {
			return pathProbe(b.Sysfs(), cred, bound.Attr(attr), scale)()
		}
		v, err := pathProbe(b.Sysfs(), cred, p, scale)()
		if err == nil {
			for _, e := range b.Hwmon().Entries() {
				if e.Dir+"/" == dir {
					bound = e
					break
				}
			}
		}
		return v, err
	}
}

// valueKeyedProbe reuses its last value while the text starts with the
// same integer, instead of while the text is the same string.
func valueKeyedProbe(b *board.SoC, cred sysfs.Cred, p string, scale float64) func() (float64, error) {
	var (
		cached bool
		key    string
		last   float64
	)
	return func() (float64, error) {
		raw, err := b.Sysfs().ReadFile(cred, p)
		if err != nil {
			return 0, err
		}
		text := strings.TrimSpace(raw)
		k := text[:len(text)-len(strings.TrimLeft(strings.TrimLeft(text, "+-"), "0123456789"))]
		if cached && k == key {
			return last, nil
		}
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("trace: parse %s: %w", p, err)
		}
		cached, key, last = true, k, float64(n)*scale
		return last, nil
	}
}

// TestMutantBoundProbe requires the property to catch a probe that
// never walks its path again, and a parse cache keyed on the integer a
// text starts with rather than on the whole text.
func TestMutantBoundProbe(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   probeMaker
	}{
		{"never-rewalks", sensorBoundProbe},
		{"value-keyed", valueKeyedProbe},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := check.Run(t.Name(), probePrograms, boundMatchesPath(tc.mk), check.Iters(100))
			if rep.ConfigErr != "" {
				t.Fatal(rep.ConfigErr)
			}
			if !rep.Failed {
				t.Fatalf("the %s probe went unnoticed in %d programs", tc.name, rep.Iters)
			}
			t.Logf("caught at program %d: %s", rep.FailIter, rep.Logs)
		})
	}
}
