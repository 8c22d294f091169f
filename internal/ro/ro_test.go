package ro

import (
	"math"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/sim"
)

func fixedVolts(v float64) func() float64 { return func() float64 { return v } }

func newBank(t *testing.T, cfg Config) *Bank {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	good := Config{NominalVolts: 0.85, Volts: fixedVolts(0.85)}
	cases := []func(Config) Config{
		func(c Config) Config { c.Count = -1; return c },
		func(c Config) Config { c.BaseHz = -1; return c },
		func(c Config) Config { c.NominalVolts = 0; return c },
		func(c Config) Config { c.Volts = nil; return c },
		func(c Config) Config { c.LocalDroopVoltsPerElement = 1e-9; return c }, // no LocalActivity
		func(c Config) Config { c.JitterHz = 1; return c },                     // no rng
		func(c Config) Config { c.JitterHz = -1; return c },
	}
	for i, mutate := range cases {
		if _, err := New(mutate(good)); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	b := newBank(t, good)
	if b.Count() != 32 {
		t.Fatalf("default Count = %d, want 32", b.Count())
	}
}

func TestNominalCounting(t *testing.T) {
	// 400 MHz at nominal voltage, 1 ms window -> 400000 cycles.
	b := newBank(t, Config{Count: 4, NominalVolts: 0.85, Volts: fixedVolts(0.85)})
	b.Step(0, time.Millisecond)
	counts := b.Sample()
	if len(counts) != 4 {
		t.Fatalf("counts len = %d", len(counts))
	}
	for i, c := range counts {
		if c != 400000 {
			t.Fatalf("count[%d] = %d, want 400000", i, c)
		}
	}
}

func TestCountsFallWithVoltage(t *testing.T) {
	v := 0.85
	b := newBank(t, Config{Count: 1, NominalVolts: 0.85, Volts: func() float64 { return v }})
	b.Step(0, time.Millisecond)
	high := b.SampleMean()
	v = 0.845 // 5 mV droop
	b.Step(0, time.Millisecond)
	low := b.SampleMean()
	if low >= high {
		t.Fatalf("counts did not fall with voltage: %v -> %v", high, low)
	}
	// Expected relative drop: 1.3/V * 5 mV = 0.65%.
	rel := (high - low) / high
	if math.Abs(rel-0.0065) > 0.0005 {
		t.Fatalf("relative drop = %v, want ~0.0065", rel)
	}
}

func TestPhaseCarryRecoverySubCount(t *testing.T) {
	// A frequency difference far below one count per window must still be
	// visible in the long-run average thanks to fractional carry.
	b1 := newBank(t, Config{Count: 1, BaseHz: 1000.5, NominalVolts: 1, Volts: fixedVolts(1)})
	b2 := newBank(t, Config{Count: 1, BaseHz: 1000.0, NominalVolts: 1, Volts: fixedVolts(1)})
	sum1, sum2 := 0.0, 0.0
	const windows = 4001
	for i := 0; i < windows; i++ {
		b1.Step(0, time.Millisecond)
		b2.Step(0, time.Millisecond)
		sum1 += b1.SampleMean()
		sum2 += b2.SampleMean()
	}
	// 0.5 extra cycles/s over ~4 s: expect ~2 extra counts (float
	// rounding can shave one off at the window boundary).
	extra := sum1 - sum2
	if extra < 1 || extra > 3 {
		t.Fatalf("extra counts = %v, want 1..3", extra)
	}
}

func TestJitterRequiresAndUsesRand(t *testing.T) {
	b := newBank(t, Config{
		Count: 1, NominalVolts: 0.85, Volts: fixedVolts(0.85),
		JitterHz: 1e6, Rand: sim.NewRand(5),
	})
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		b.Step(0, time.Millisecond)
		seen[b.Sample()[0]] = true
	}
	if len(seen) < 2 {
		t.Fatal("jitter produced constant counts")
	}
}

func TestFrequencyAccessor(t *testing.T) {
	b := newBank(t, Config{Count: 2, NominalVolts: 0.85, Volts: fixedVolts(0.85)})
	b.Step(0, time.Millisecond)
	f, err := b.Frequency(0)
	if err != nil || math.Abs(f-400e6) > 1 {
		t.Fatalf("Frequency = %v, %v", f, err)
	}
	if _, err := b.Frequency(5); err == nil {
		t.Fatal("out-of-range oscillator accepted")
	}
}

func TestNegativeFrequencyClamps(t *testing.T) {
	// Collapse the voltage far below nominal: frequency clamps at zero
	// rather than counting backwards.
	b := newBank(t, Config{Count: 1, NominalVolts: 0.85, Volts: fixedVolts(0)})
	b.Step(0, time.Millisecond)
	if c := b.Sample()[0]; c != 0 {
		t.Fatalf("count = %d, want 0 at collapsed rail", c)
	}
}

func TestDeployOnFabricWithLocalDroop(t *testing.T) {
	fab, err := fabric.New(fabric.Config{
		Device:        fabric.ZU9EG(),
		CapPerElement: 1e-13,
		Voltage:       func() float64 { return 0.85 },
	})
	if err != nil {
		t.Fatalf("fabric.New: %v", err)
	}
	bank := newBank(t, Config{
		Count: 30, NominalVolts: 0.85, Volts: func() float64 { return 0.85 },
		LocalDroopVoltsPerElement: 1e-8,
		LocalActivity:             fab.RegionActivity,
	})
	if err := bank.Deploy(fab); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	// A hot neighbour in region (0,0) slows only the oscillators there.
	hot := &hotCircuit{active: 1e5}
	fab.MustPlace(hot, []fabric.Region{{Row: 0, Col: 0}})
	fab.Step(0, time.Millisecond)
	fab.Step(0, time.Millisecond) // second tick sees region activity from first
	f0, _ := bank.Frequency(0)    // deployed round-robin: RO 0 is in (0,0)
	f1, _ := bank.Frequency(1)    // RO 1 is in a different region
	if f0 >= f1 {
		t.Fatalf("local droop missing: f0=%v f1=%v", f0, f1)
	}
}

func TestSampleMeanEmptyBank(t *testing.T) {
	b := newBank(t, Config{Count: 0, NominalVolts: 1, Volts: fixedVolts(1)})
	// Count 0 means "use default 32"? No: explicit zero takes default, so
	// build a 1-RO bank and verify SampleMean matches Sample.
	if b.Count() != 32 {
		t.Fatalf("Count = %d, want default 32", b.Count())
	}
	b.Step(0, time.Millisecond)
	m := b.SampleMean()
	if m <= 0 {
		t.Fatalf("SampleMean = %v", m)
	}
}

func TestUtilizationScalesWithCount(t *testing.T) {
	b := newBank(t, Config{Count: 10, NominalVolts: 1, Volts: fixedVolts(1)})
	u := b.Utilization()
	if u.LUTs != 80 || u.FFs != 320 {
		t.Fatalf("Utilization = %+v, want 80 LUT / 320 FF", u)
	}
	if b.ActiveElements() != 80 {
		t.Fatalf("ActiveElements = %v, want 80", b.ActiveElements())
	}
	if b.CircuitName() != "ro-bank" {
		t.Fatalf("CircuitName = %q", b.CircuitName())
	}
}

type hotCircuit struct{ active float64 }

func (h *hotCircuit) CircuitName() string           { return "hot" }
func (h *hotCircuit) Utilization() fabric.Resources { return fabric.Resources{LUTs: 1} }
func (h *hotCircuit) Step(now, dt time.Duration)    {}
func (h *hotCircuit) ActiveElements() float64       { return h.active }

// jitteredTwins returns two banks driven by identical jitter streams, so
// they hold the same phases step for step.
func jitteredTwins(t *testing.T) (*Bank, *Bank) {
	t.Helper()
	mk := func() *Bank {
		return newBank(t, Config{
			Count: 7, NominalVolts: 0.85, Volts: fixedVolts(0.84),
			JitterHz: 3e5, Rand: sim.NewRand(13),
		})
	}
	return mk(), mk()
}

// TestSampleMeanMatchesSample: SampleMean reads and resets the counters
// in place, and must equal the mean of Sample's counts on a twin bank
// while leaving the same fractional carry behind.
func TestSampleMeanMatchesSample(t *testing.T) {
	a, b := jitteredTwins(t)
	for i := 0; i < 200; i++ {
		dt := time.Duration(1+i%5) * 37 * time.Microsecond
		a.Step(0, dt)
		b.Step(0, dt)
		counts := b.Sample()
		sum := 0
		for _, c := range counts {
			sum += c
		}
		want := float64(sum) / float64(len(counts))
		if got := a.SampleMean(); got != want {
			t.Fatalf("sample %d: SampleMean = %v, mean of Sample = %v", i, got, want)
		}
		for k := range a.phase {
			if a.phase[k] != b.phase[k] {
				t.Fatalf("sample %d: RO %d carry %v vs %v", i, k, a.phase[k], b.phase[k])
			}
		}
	}
}

// TestSampleMeanZeroAllocs guards the Fig. 2 sampling loop: one
// SampleMean per sample must not allocate.
func TestSampleMeanZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	b, _ := jitteredTwins(t)
	allocs := testing.AllocsPerRun(200, func() {
		b.Step(0, time.Millisecond)
		b.SampleMean()
	})
	if allocs != 0 {
		t.Fatalf("Step+SampleMean allocated %v objects/op, want 0", allocs)
	}
}
