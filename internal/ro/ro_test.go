package ro

import (
	"math"
	"strings"
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
		func(c Config) Config { c.JitterHz = 1; return c }, // no rng
		func(c Config) Config { c.JitterHz = -1; return c },
		func(c Config) Config { c.VoltSensitivity = -1; return c },
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

// TestCountsFollowFrequency: across runs of ticks that change the rail
// voltage and dt, a count is the sum of each tick's frequency times its
// dt, to within the float rounding of a closed-form sum.
func TestCountsFollowFrequency(t *testing.T) {
	v := 0.85
	b := newBank(t, Config{Count: 2, NominalVolts: 0.85, Volts: func() float64 { return v }})
	want := 0.0
	for i, dt := range []time.Duration{time.Millisecond, time.Millisecond, 300 * time.Microsecond, time.Millisecond} {
		v = 0.85 - 0.002*float64(i)
		b.Step(0, dt)
		want += 400e6 * (1 + 1.3*(v-0.85)) * dt.Seconds()
	}
	for i, c := range b.Sample() {
		if math.Abs(float64(c)-want) > 1 {
			t.Fatalf("count[%d] = %d, want %.1f", i, c, want)
		}
	}
}

func TestNegativeFrequencyClamps(t *testing.T) {
	// Collapse the voltage far below nominal: frequency clamps at zero
	// rather than counting backwards, and a stopped loop has no jitter.
	for _, jitter := range []float64{0, 1e6} {
		b := newBank(t, Config{Count: 3, NominalVolts: 0.85, Volts: fixedVolts(0),
			JitterHz: jitter, Rand: sim.NewRand(3)})
		for s := 0; s < 20; s++ {
			b.Step(0, time.Millisecond)
			for i, c := range b.Sample() {
				if c != 0 {
					t.Fatalf("jitter %g, sample %d: count[%d] = %d, want 0 at collapsed rail", jitter, s, i, c)
				}
			}
		}
	}
}

// TestWindowJitterNeverCountsBackwards: a loop barely running, with
// window jitter a thousand times its mean count, still never returns a
// negative count or leaves a carry outside [0, 1).
func TestWindowJitterNeverCountsBackwards(t *testing.T) {
	stop := 0.85 - 1/1.3 // the rail voltage at which the loop stops
	b := newBank(t, Config{Count: 4, NominalVolts: 0.85, Volts: fixedVolts(stop + 1e-6),
		JitterHz: 1e6, Rand: sim.NewRand(4)})
	zeros := 0
	for s := 0; s < 200; s++ {
		b.Step(0, time.Millisecond)
		for i, c := range b.Sample() {
			if c < 0 || b.carry[i] < 0 || b.carry[i] >= 1 {
				t.Fatalf("sample %d, RO %d: count %d carry %v", s, i, c, b.carry[i])
			}
			if c == 0 {
				zeros++
			}
		}
	}
	if zeros < 200 {
		t.Fatalf("only %d of 800 windows clamped at zero; the scenario no longer tests the clamp", zeros)
	}
}

// windowCountVariance runs windows of ticks 500 µs steps at a constant
// rail and returns the variance of the per-oscillator counts. mutate, if
// not nil, runs on the bank before each sample.
func windowCountVariance(t *testing.T, jitter float64, ticks, windows int, mutate func(*Bank)) float64 {
	t.Helper()
	b := newBank(t, Config{Count: 8, NominalVolts: 0.85, Volts: fixedVolts(0.84),
		JitterHz: jitter, Rand: sim.NewRand(21)})
	var counts []float64
	for w := 0; w < windows; w++ {
		for k := 0; k < ticks; k++ {
			b.Step(0, 500*time.Microsecond)
		}
		if mutate != nil {
			mutate(b)
		}
		for _, c := range b.Sample() {
			counts = append(counts, float64(c))
		}
	}
	mean := 0.0
	for _, c := range counts {
		mean += c
	}
	mean /= float64(len(counts))
	ss := 0.0
	for _, c := range counts {
		ss += (c - mean) * (c - mean)
	}
	return ss / float64(len(counts)-1)
}

// TestWindowJitterVariance: per-tick N(0, σ) jitter summed over T ticks
// of dt gives a count variance of (σ·dt·√T)². 8000 counts pin the
// sample variance to about ±1.6% (1σ); a window drawn with σ·dt·T, as if
// the per-tick errors were fully correlated, is 70 times too wide.
func TestWindowJitterVariance(t *testing.T) {
	const sigma, ticks = 50e3, 70
	want := math.Pow(sigma*500e-6*math.Sqrt(ticks), 2)
	check := func(got float64) bool { return math.Abs(got/want-1) < 0.12 }
	if got := windowCountVariance(t, sigma, ticks, 1000, nil); !check(got) {
		t.Fatalf("count variance %.0f, want (σ·dt·√T)² = %.0f", got, want)
	}
	// The mutant scales each window's jitter by T instead of √T.
	linear := func(b *Bank) {
		b.fold()
		for i := range b.jvar {
			b.jvar[i] *= ticks
		}
	}
	if got := windowCountVariance(t, sigma, ticks, 200, linear); check(got) {
		t.Fatalf("jitter scaled by T passed the variance check: %.0f vs %.0f", got, want)
	}
}

func newFabric(t *testing.T) *fabric.Fabric {
	t.Helper()
	fab, err := fabric.New(fabric.Config{
		Device:        fabric.ZU9EG(),
		CapPerElement: 1e-13,
		Voltage:       func() float64 { return 0.85 },
	})
	if err != nil {
		t.Fatalf("fabric.New: %v", err)
	}
	return fab
}

func TestDeployOnFabricWithLocalDroop(t *testing.T) {
	fab := newFabric(t)
	bank := newBank(t, Config{
		Count: 30, NominalVolts: 0.85, Volts: func() float64 { return 0.85 },
		LocalDroopVoltsPerElement: 1e-8,
	})
	if err := bank.Deploy(fab); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	// A hot neighbour in region (0,0) slows only the oscillators there.
	hot := &hotCircuit{active: 1e5}
	fab.MustPlace(hot, []fabric.Region{{Row: 0, Col: 0}})
	fab.Step(0, time.Millisecond)
	bank.Sample()                 // the first tick sees no activity yet
	fab.Step(0, time.Millisecond) // the second sees the first's
	counts := bank.Sample()
	// Deployed round-robin over the device's regions: RO 0 sits in (0,0).
	regions := len(fab.SpreadEvenly())
	for i, c := range counts {
		if i%regions == 0 && c >= counts[1] {
			t.Fatalf("RO %d in the hot region counted %d, RO 1 elsewhere %d", i, c, counts[1])
		}
		if i%regions != 0 && c != counts[1] {
			t.Fatalf("RO %d outside the hot region counted %d, RO 1 %d", i, c, counts[1])
		}
	}
}

// TestLocalDroopNeedsDeploy: a bank with local droop reads its
// oscillators' regions from the fabric Deploy placed it on. Placed any
// other way, or stepped unplaced, it must panic rather than step
// without its local droop; without local droop it steps either way.
func TestLocalDroopNeedsDeploy(t *testing.T) {
	for _, tc := range []struct {
		name string
		step func(t *testing.T, b *Bank)
	}{
		{"fabric.Place", func(t *testing.T, b *Bank) {
			fab := newFabric(t)
			fab.MustPlace(b, fab.SpreadEvenly())
			fab.Step(0, time.Millisecond)
		}},
		{"unplaced", func(t *testing.T, b *Bank) { b.Step(0, time.Millisecond) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain := newBank(t, Config{Count: 4, NominalVolts: 0.85, Volts: fixedVolts(0.85)})
			tc.step(t, plain)
			if c := plain.Sample()[0]; c != 400000 {
				t.Fatalf("bank without local droop: count %d, want 400000", c)
			}
			droopy := newBank(t, Config{Count: 4, NominalVolts: 0.85, Volts: fixedVolts(0.85),
				LocalDroopVoltsPerElement: 1e-8})
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "without Deploy") {
					t.Fatalf("stepping a bank with local droop not placed by Deploy: panic %q, want one naming Deploy", msg)
				}
			}()
			tc.step(t, droopy)
		})
	}
}

// TestSampleMeanOneOscillator: on a one-oscillator bank the mean is
// that oscillator's count, the one value Sample returns on a twin.
func TestSampleMeanOneOscillator(t *testing.T) {
	cfg := Config{Count: 1, NominalVolts: 1, Volts: fixedVolts(1)}
	a, b := newBank(t, cfg), newBank(t, cfg)
	for i := 0; i < 5; i++ {
		a.Step(0, time.Millisecond)
		b.Step(0, time.Millisecond)
		counts := b.Sample()
		if len(counts) != 1 {
			t.Fatalf("Sample returned %d counts, want 1", len(counts))
		}
		if got := a.SampleMean(); got != float64(counts[0]) || got <= 0 {
			t.Fatalf("sample %d: SampleMean = %v, oscillator count %d", i, got, counts[0])
		}
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
// while making the same draws and leaving the same fractional carry.
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
		for k := range a.carry {
			if a.carry[k] != b.carry[k] {
				t.Fatalf("sample %d: RO %d carry %v vs %v", i, k, a.carry[k], b.carry[k])
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
