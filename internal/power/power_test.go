package power

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func newTestRail(t *testing.T, static float64) *Rail {
	t.Helper()
	r, err := NewRail(RailConfig{Name: "VCCINT", NominalVoltage: 0.85, StaticCurrent: static})
	if err != nil {
		t.Fatalf("NewRail: %v", err)
	}
	return r
}

func TestNewRailValidation(t *testing.T) {
	cases := []RailConfig{
		{},                              // no name
		{Name: "x"},                     // no voltage
		{Name: "x", NominalVoltage: -1}, // negative voltage
		{Name: "x", NominalVoltage: 1, StaticCurrent: -1},
		{Name: "x", NominalVoltage: 1, NoiseSigma: -1},
		{Name: "x", NominalVoltage: 1, NoiseSigma: 0.1}, // noise without rng
	}
	for i, cfg := range cases {
		if _, err := NewRail(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

func TestRailAccessors(t *testing.T) {
	r := newTestRail(t, 0.6)
	if r.Name() != "VCCINT" {
		t.Fatalf("Name = %q", r.Name())
	}
	if r.NominalVoltage() != 0.85 || r.Voltage() != 0.85 {
		t.Fatalf("voltages = %v/%v", r.NominalVoltage(), r.Voltage())
	}
	if r.StaticCurrent() != 0.6 {
		t.Fatalf("static = %v", r.StaticCurrent())
	}
	r.SetVoltage(0.83)
	if r.Voltage() != 0.83 {
		t.Fatalf("SetVoltage not applied")
	}
}

func TestRailSumsSources(t *testing.T) {
	r := newTestRail(t, 0.5)
	r.MustAttach(&ConstantSource{Name: "a", Amps: 1.0})
	r.MustAttach(&ConstantSource{Name: "b", Amps: 2.5})
	r.Step(0, time.Millisecond)
	if got := r.Current(); got != 4.0 {
		t.Fatalf("Current = %v, want 4.0", got)
	}
	wantP := 0.85 * 4.0
	if math.Abs(r.Power()-wantP) > 1e-12 {
		t.Fatalf("Power = %v, want %v", r.Power(), wantP)
	}
}

func TestRailAttachErrors(t *testing.T) {
	r := newTestRail(t, 0)
	if err := r.Attach(nil); err == nil {
		t.Fatal("nil source accepted")
	}
	s := &ConstantSource{Name: "a", Amps: 1}
	r.MustAttach(s)
	if err := r.Attach(s); err == nil {
		t.Fatal("duplicate source accepted")
	}
	if r.Sources() != 1 {
		t.Fatalf("Sources = %d, want 1", r.Sources())
	}
}

func TestMustAttachPanics(t *testing.T) {
	r := newTestRail(t, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("MustAttach(nil) did not panic")
		}
	}()
	r.MustAttach(nil)
}

func TestRailCurrentBeforeStepIsZero(t *testing.T) {
	r := newTestRail(t, 0.5)
	if r.Current() != 0 {
		t.Fatalf("pre-step current = %v, want 0", r.Current())
	}
}

func TestRailNoiseIsZeroMeanAndClamped(t *testing.T) {
	rng := sim.NewRand(3)
	r, err := NewRail(RailConfig{
		Name: "n", NominalVoltage: 0.85,
		StaticCurrent: 1.0, NoiseSigma: 0.01, Rand: rng,
	})
	if err != nil {
		t.Fatalf("NewRail: %v", err)
	}
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		r.Step(0, time.Millisecond)
		c := r.Current()
		if c < 0 {
			t.Fatal("rail sourced negative current")
		}
		sum += c
	}
	mean := sum / n
	if math.Abs(mean-1.0) > 0.001 {
		t.Fatalf("noisy mean = %v, want ~1.0", mean)
	}
}

func TestRailClampsNegativeTotal(t *testing.T) {
	r := newTestRail(t, 0)
	r.MustAttach(&ConstantSource{Name: "sink", Amps: -5})
	r.Step(0, time.Millisecond)
	if r.Current() != 0 {
		t.Fatalf("Current = %v, want clamp to 0", r.Current())
	}
}

func TestActivityModel(t *testing.T) {
	m := ActivityModel{CapPerElement: 1e-12, ClockHz: 300e6}
	// I = C*f*V*n = 1e-12 * 3e8 * 0.85 * 1000
	got := m.CurrentFor(1000, 0.85)
	want := 1e-12 * 300e6 * 0.85 * 1000
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("CurrentFor = %v, want %v", got, want)
	}
	if m.CurrentFor(0, 0.85) != 0 || m.CurrentFor(-5, 0.85) != 0 {
		t.Fatal("non-positive activity should draw nothing")
	}
	if math.Abs(m.PowerFor(1000, 0.85)-want*0.85) > 1e-15 {
		t.Fatalf("PowerFor inconsistent with CurrentFor")
	}
}

// Property: rail current is linear in the number of identical sources.
func TestRailLinearityProperty(t *testing.T) {
	f := func(k uint8) bool {
		n := int(k%32) + 1
		r, err := NewRail(RailConfig{Name: "p", NominalVoltage: 1, StaticCurrent: 0.25})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if err := r.Attach(&ConstantSource{Name: "s", Amps: 0.125}); err != nil {
				return false
			}
		}
		r.Step(0, time.Millisecond)
		want := 0.25 + 0.125*float64(n)
		return math.Abs(r.Current()-want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: activity current scales linearly with n and with V.
func TestActivityLinearityProperty(t *testing.T) {
	m := ActivityModel{CapPerElement: 2e-13, ClockHz: 100e6}
	f := func(a, b uint16) bool {
		x, y := float64(a), float64(b)
		sum := m.CurrentFor(x, 0.9) + m.CurrentFor(y, 0.9)
		joint := m.CurrentFor(x+y, 0.9)
		return math.Abs(sum-joint) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
