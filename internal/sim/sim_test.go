package sim

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/obs"
)

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(0, 1); err == nil {
		t.Fatal("zero step accepted")
	}
	if _, err := NewEngine(-time.Millisecond, 1); err == nil {
		t.Fatal("negative step accepted")
	}
	e, err := NewEngine(time.Millisecond, 42)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if e.Dt() != time.Millisecond || e.Seed() != 42 || e.Now() != 0 {
		t.Fatalf("engine state = dt %v seed %v now %v", e.Dt(), e.Seed(), e.Now())
	}
}

func TestMustNewEnginePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewEngine(0) did not panic")
		}
	}()
	MustNewEngine(0, 1)
}

func TestTickAdvancesTime(t *testing.T) {
	e := MustNewEngine(time.Millisecond, 0)
	e.Tick()
	e.Tick()
	if e.Now() != 2*time.Millisecond {
		t.Fatalf("Now = %v, want 2ms", e.Now())
	}
}

func TestStepOrderAndArguments(t *testing.T) {
	e := MustNewEngine(time.Millisecond, 0)
	var order []string
	var nows []time.Duration
	e.MustRegister("a", StepFunc(func(now, dt time.Duration) {
		order = append(order, "a")
		nows = append(nows, now)
		if dt != time.Millisecond {
			t.Fatalf("dt = %v", dt)
		}
	}))
	e.MustRegister("b", StepFunc(func(now, dt time.Duration) {
		order = append(order, "b")
	}))
	e.Tick()
	e.Tick()
	if len(order) != 4 || order[0] != "a" || order[1] != "b" || order[2] != "a" {
		t.Fatalf("order = %v", order)
	}
	if nows[0] != 0 || nows[1] != time.Millisecond {
		t.Fatalf("nows = %v", nows)
	}
}

func TestRegisterErrors(t *testing.T) {
	e := MustNewEngine(time.Millisecond, 0)
	if err := e.Register("x", nil); err == nil {
		t.Fatal("nil component accepted")
	}
	e.MustRegister("x", StepFunc(func(now, dt time.Duration) {}))
	if err := e.Register("x", StepFunc(func(now, dt time.Duration) {})); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestMustRegisterPanics(t *testing.T) {
	e := MustNewEngine(time.Millisecond, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister(nil) did not panic")
		}
	}()
	e.MustRegister("x", nil)
}

func TestRunRoundsUp(t *testing.T) {
	e := MustNewEngine(3*time.Millisecond, 0)
	n := e.Run(10 * time.Millisecond) // 10/3 -> 4 ticks
	if n != 4 {
		t.Fatalf("Run ticks = %d, want 4", n)
	}
	if e.Now() != 12*time.Millisecond {
		t.Fatalf("Now = %v, want 12ms", e.Now())
	}
	if e.Run(0) != 0 || e.Run(-time.Second) != 0 {
		t.Fatal("Run with non-positive duration should be a no-op")
	}
}

func TestRunUntil(t *testing.T) {
	e := MustNewEngine(time.Millisecond, 0)
	count := 0
	e.MustRegister("c", StepFunc(func(now, dt time.Duration) { count++ }))
	ok := e.RunUntil(func() bool { return count >= 5 }, time.Second)
	if !ok {
		t.Fatal("RunUntil did not fire")
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	ok = e.RunUntil(func() bool { return false }, 10*time.Millisecond)
	if ok {
		t.Fatal("RunUntil fired on constant-false predicate")
	}
}

// TestTickCounter pins sim.ticks: Run and RunUntil add the ticks they
// executed in one step, with or without an early stop, and a direct
// Tick counts one.
func TestTickCounter(t *testing.T) {
	ticks := obs.C("sim.ticks")
	e := MustNewEngine(time.Millisecond, 0)
	count := 0
	e.MustRegister("c", StepFunc(func(now, dt time.Duration) { count++ }))
	for _, tc := range []struct {
		name string
		run  func()
		want int64
	}{
		{"Run", func() { e.Run(10 * time.Millisecond) }, 10},
		{"Run rounded up", func() { e.Run(2500 * time.Microsecond) }, 3},
		{"RunUntil early stop", func() { e.RunUntil(func() bool { return count >= 20 }, time.Second) }, 7},
		{"RunUntil fired at once", func() { e.RunUntil(func() bool { return true }, time.Second) }, 0},
		{"RunUntil budget", func() { e.RunUntil(func() bool { return false }, 5*time.Millisecond) }, 5},
		{"Tick", e.Tick, 1},
	} {
		before, steps := ticks.Value(), count
		tc.run()
		if got := ticks.Value() - before; got != tc.want {
			t.Errorf("%s: sim.ticks moved by %d, want %d", tc.name, got, tc.want)
		}
		if got := int64(count - steps); got != tc.want {
			t.Errorf("%s: %d ticks stepped, want %d", tc.name, got, tc.want)
		}
	}
}

// counting is a component that counts one event per step on the
// tally Register hands it, and records what the counter read on each
// step.
type counting struct {
	c      *obs.Counter
	tally  *obs.Tally
	slot   obs.Slot
	seen   []int64
	panicN int // panic on this step, counting from 1 (0: never)
}

func (p *counting) SetTally(t *obs.Tally) { p.tally, p.slot = t, t.Slot(p.c) }

func (p *counting) Step(now, dt time.Duration) {
	p.tally.Add(p.slot, 1)
	p.seen = append(p.seen, p.c.Value())
	if len(p.seen) == p.panicN {
		panic("step failed")
	}
}

// TestRunPublishesTally pins the engine's tally: a Counting part gets
// it at Register, its counts stay pending while Run, RunUntil or Tick
// is stepping and are published when the call returns, and sim.ticks
// is on the same tally.
func TestRunPublishesTally(t *testing.T) {
	e := MustNewEngine(time.Millisecond, 0)
	p := &counting{c: obs.NewRegistry().Counter("events")}
	e.MustRegister("p", p)
	if p.tally != e.Tally() {
		t.Fatal("Register did not hand the part the engine's tally")
	}
	ticks := obs.C("sim.ticks")
	for _, tc := range []struct {
		name string
		run  func()
		n    int64
	}{
		{"Run", func() { e.Run(5 * time.Millisecond) }, 5},
		{"RunUntil", func() { e.RunUntil(func() bool { return false }, 3*time.Millisecond) }, 3},
		{"Tick", e.Tick, 1},
	} {
		before, t0 := p.c.Value(), ticks.Value()
		p.seen = p.seen[:0]
		tc.run()
		for i, v := range p.seen {
			if v != before {
				t.Errorf("%s: step %d saw the counter at %d, want %d until the call returns", tc.name, i, v, before)
			}
		}
		if got := p.c.Value() - before; got != tc.n {
			t.Errorf("%s: counter moved by %d, want %d", tc.name, got, tc.n)
		}
		if got := ticks.Value() - t0; got != tc.n {
			t.Errorf("%s: sim.ticks moved by %d, want %d", tc.name, got, tc.n)
		}
	}
	p.tally.Add(p.slot, 1) // outside a run: at once
	if got := p.c.Value(); got != 10 {
		t.Fatalf("counter = %d after an Add between runs, want 10", got)
	}
}

// TestPanickingStepPublishes: a run whose step panics still publishes
// the events counted before the panic and the ticks completed, and the
// engine's next run publishes as usual.
func TestPanickingStepPublishes(t *testing.T) {
	e := MustNewEngine(time.Millisecond, 0)
	p := &counting{c: obs.NewRegistry().Counter("events"), panicN: 4}
	e.MustRegister("p", p)
	ticks := obs.C("sim.ticks")
	t0 := ticks.Value()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the step did not panic")
			}
		}()
		e.Run(10 * time.Millisecond)
	}()
	if got := p.c.Value(); got != 4 {
		t.Errorf("counter = %d after the panic, want the 4 steps counted", got)
	}
	if got := ticks.Value() - t0; got != 3 {
		t.Errorf("sim.ticks moved by %d, want the 3 completed ticks", got)
	}
	e.Run(2 * time.Millisecond)
	if got := p.c.Value(); got != 6 {
		t.Errorf("counter = %d after the next run, want 6", got)
	}
}

func TestStreamsDeterministic(t *testing.T) {
	e1 := MustNewEngine(time.Millisecond, 7)
	e2 := MustNewEngine(time.Millisecond, 7)
	for i := 0; i < 100; i++ {
		if e1.Stream("noise").Float64() != e2.Stream("noise").Float64() {
			t.Fatal("same seed+name produced different streams")
		}
	}
}

func TestStreamsIndependentByName(t *testing.T) {
	e := MustNewEngine(time.Millisecond, 7)
	a := e.Stream("a").Float64()
	b := e.Stream("b").Float64()
	if a == b {
		t.Fatal("distinct names produced identical first draw (suspicious)")
	}
	// Same name returns the same stream object (stateful).
	s1 := e.Stream("a")
	s2 := e.Stream("a")
	if s1 != s2 {
		t.Fatal("Stream did not cache per name")
	}
}

// TestStreamsOrderIndependent pins the determinism contract the whole
// simulation depends on: a named stream's draws are a function of
// (seed, name) only, so the order in which components register — and
// the order in which streams are first requested — must not change any
// component's outcome.
func TestStreamsOrderIndependent(t *testing.T) {
	const seed = 99
	names := []string{"pdn/noise", "ina226/quant", "dpu/jitter"}

	// run builds an engine, registers the named components in the given
	// order (each drawing from its own stream every tick), and returns
	// each component's draw sequence.
	run := func(order []string) map[string][]float64 {
		e := MustNewEngine(time.Millisecond, seed)
		out := map[string][]float64{}
		for _, n := range order {
			n := n
			e.MustRegister(n, StepFunc(func(now, dt time.Duration) {
				out[n] = append(out[n], e.Stream(n).Float64())
			}))
		}
		e.Run(20 * time.Millisecond)
		return out
	}

	a := run([]string{names[0], names[1], names[2]})
	b := run([]string{names[2], names[0], names[1]})
	for _, n := range names {
		if len(a[n]) == 0 || len(a[n]) != len(b[n]) {
			t.Fatalf("%s: draw counts differ: %d vs %d", n, len(a[n]), len(b[n]))
		}
		for i := range a[n] {
			if a[n][i] != b[n][i] {
				t.Fatalf("%s: draw %d differs across registration orders: %v vs %v",
					n, i, a[n][i], b[n][i])
			}
		}
	}

	// First-request order must not matter either: prefetching every
	// stream in reverse before any tick leaves the sequences unchanged.
	e := MustNewEngine(time.Millisecond, seed)
	for i := len(names) - 1; i >= 0; i-- {
		e.Stream(names[i])
	}
	for _, n := range names {
		if got, want := e.Stream(n).Float64(), a[n][0]; got != want {
			t.Fatalf("%s: prefetch changed first draw: %v vs %v", n, got, want)
		}
	}
}

func TestStreamsVaryWithSeed(t *testing.T) {
	f := func(seed int64) bool {
		if seed == seed+1 { // overflow guard (never true, keeps vet happy)
			return true
		}
		a := MustNewEngine(time.Millisecond, seed).Stream("x").Int63()
		b := MustNewEngine(time.Millisecond, seed+1).Stream("x").Int63()
		return a != b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Run(d) leaves Now at a whole multiple of dt and never less
// than d.
func TestRunProperty(t *testing.T) {
	f := func(ms uint16) bool {
		e := MustNewEngine(700*time.Microsecond, 0)
		d := time.Duration(ms) * time.Millisecond
		e.Run(d)
		if e.Now() < d {
			return false
		}
		return e.Now()%e.Dt() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
