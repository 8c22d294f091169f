package check

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestIntRangeStaysInBounds(t *testing.T) {
	g := IntRange(-7, 13)
	r := rng(1)
	for i := 0; i < 1000; i++ {
		v := g.Generate(r, 50)
		if v < -7 || v > 13 {
			t.Fatalf("generated %d outside [-7, 13]", v)
		}
		for _, s := range g.Shrink(v) {
			if s < -7 || s > 13 || s >= v {
				t.Fatalf("shrink of %d produced out-of-range or non-smaller %d", v, s)
			}
		}
	}
	if g.Shrink(-7) != nil {
		t.Fatal("lower bound should not shrink")
	}
}

func TestIntRangeSwappedBounds(t *testing.T) {
	g := IntRange(10, 2)
	v := g.Generate(rng(1), 50)
	if v < 2 || v > 10 {
		t.Fatalf("swapped-bound generate out of range: %d", v)
	}
}

func TestFloat64RangeShrinksTowardZero(t *testing.T) {
	g := Float64Range(-5, 5)
	for _, v := range []float64{4.75, -3.5, 5} {
		cands := g.Shrink(v)
		if len(cands) == 0 || cands[0] != 0 {
			t.Fatalf("Shrink(%g) = %v, want first candidate 0", v, cands)
		}
	}
	if got := g.Shrink(math.NaN()); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Shrink(NaN) = %v, want [0]", got)
	}
	if got := g.Shrink(math.Inf(1)); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Shrink(+Inf) = %v, want [0]", got)
	}
	if g.Shrink(0) != nil {
		t.Fatal("target value should not shrink")
	}
}

func TestOneOfShrinksTowardFirst(t *testing.T) {
	g := OneOf("simple", "medium", "hard")
	if g.Shrink("simple") != nil {
		t.Fatal("first value should be minimal")
	}
	cands := g.Shrink("hard")
	if len(cands) != 2 || cands[0] != "simple" || cands[1] != "medium" {
		t.Fatalf("Shrink(hard) = %v", cands)
	}
	seen := map[string]bool{}
	r := rng(2)
	for i := 0; i < 200; i++ {
		seen[g.Generate(r, 50)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("OneOf did not cover all values: %v", seen)
	}
}

func TestBoolShrink(t *testing.T) {
	g := Bool()
	if got := g.Shrink(true); len(got) != 1 || got[0] != false {
		t.Fatalf("Shrink(true) = %v", got)
	}
	if g.Shrink(false) != nil {
		t.Fatal("false should be minimal")
	}
}

func TestSliceOfRespectsLengthBounds(t *testing.T) {
	g := SliceOf(IntRange(0, 9), 2, 6)
	r := rng(3)
	for i := 0; i < 500; i++ {
		v := g.Generate(r, 1+i%100)
		if len(v) < 2 || len(v) > 6 {
			t.Fatalf("generated length %d outside [2, 6]", len(v))
		}
		for _, s := range g.Shrink(v) {
			if len(s) < 2 {
				t.Fatalf("shrink produced slice shorter than minLen: %v", s)
			}
		}
	}
}

func TestSliceShrinkNeverAliases(t *testing.T) {
	g := SliceOf(IntRange(0, 100), 1, 8)
	v := []int64{50, 60, 70}
	for _, cand := range g.Shrink(v) {
		for i := range cand {
			cand[i] = -1 // mutate the candidate...
		}
	}
	if v[0] != 50 || v[1] != 60 || v[2] != 70 {
		t.Fatalf("shrink candidates alias the input slice: %v", v)
	}
}

func TestMapTransforms(t *testing.T) {
	g := Map(IntRange(0, 9), func(v int64) string { return strings.Repeat("x", int(v)) })
	v := g.Generate(rng(4), 50)
	if len(v) > 9 || strings.Trim(v, "x") != "" {
		t.Fatalf("mapped value %q not of expected form", v)
	}
}

func TestFloatsDialsContamination(t *testing.T) {
	g := Floats(FloatsConfig{MinLen: 16, MaxLen: 64, NaNRate: 0.3, InfRate: 0.2})
	r := rng(5)
	nans, infs, finites := 0, 0, 0
	for i := 0; i < 50; i++ {
		for _, x := range g.Generate(r, 100) {
			switch {
			case math.IsNaN(x):
				nans++
			case math.IsInf(x, 0):
				infs++
			default:
				finites++
			}
		}
	}
	if nans == 0 || infs == 0 || finites == 0 {
		t.Fatalf("contamination dial ineffective: nan=%d inf=%d finite=%d", nans, infs, finites)
	}
	// Poison elements must survive shrinking (removing them would
	// un-falsify a rejection property); finite elements still shrink.
	for _, cand := range g.Shrink([]float64{math.NaN()}) {
		if len(cand) == 1 && !math.IsNaN(cand[0]) {
			t.Fatalf("shrink replaced NaN poison with %v", cand[0])
		}
	}
}

func TestFloatsAllFiniteByDefault(t *testing.T) {
	g := Floats(FloatsConfig{MinLen: 1, MaxLen: 32})
	r := rng(6)
	for i := 0; i < 200; i++ {
		for _, x := range g.Generate(r, 100) {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("zero-rate generator produced non-finite %v", x)
			}
			if x < -1000 || x > 1000 {
				t.Fatalf("default bounds violated: %v", x)
			}
		}
	}
}

func TestPeriodicTracesPlantExactBin(t *testing.T) {
	g := PeriodicTraces(TraceConfig{})
	r := rng(7)
	for i := 0; i < 100; i++ {
		p := g.Generate(r, 50)
		n := len(p.Trace.Samples)
		if n != p.Bin*p.PeriodSamples {
			t.Fatalf("n=%d != bin(%d)*period(%d)", n, p.Bin, p.PeriodSamples)
		}
		if p.Bin < 2 || p.PeriodSamples < 8 {
			t.Fatalf("planted bin/period out of design range: %d/%d", p.Bin, p.PeriodSamples)
		}
		if got := p.Trace.Gaps(); got != p.Gaps {
			t.Fatalf("Gaps() = %d, generator recorded %d", got, p.Gaps)
		}
		if p.Gaps != 0 {
			t.Fatalf("zero GapRate produced %d gaps", p.Gaps)
		}
		if p.Trace.Interval != 2*time.Millisecond {
			t.Fatalf("interval = %s", p.Trace.Interval)
		}
	}
}

func TestPeriodicTracesGapDialing(t *testing.T) {
	g := PeriodicTraces(TraceConfig{GapRate: 0.2})
	r := rng(8)
	total := 0
	for i := 0; i < 20; i++ {
		p := g.Generate(r, 50)
		if got := p.Trace.Gaps(); got != p.Gaps {
			t.Fatalf("Gaps() = %d, recorded %d", got, p.Gaps)
		}
		total += p.Gaps
	}
	if total == 0 {
		t.Fatal("GapRate 0.2 produced no gaps in 20 traces")
	}
}

func TestBitsGeneratesBinary(t *testing.T) {
	g := Bits(4, 16)
	r := rng(9)
	for i := 0; i < 100; i++ {
		bits := g.Generate(r, 50)
		if len(bits) < 4 || len(bits) > 16 {
			t.Fatalf("length %d outside [4, 16]", len(bits))
		}
		for _, b := range bits {
			if b != 0 && b != 1 {
				t.Fatalf("non-binary bit %d", b)
			}
		}
	}
	if d := g.Describe([]int{1, 0, 1, 1}); d != "1011" {
		t.Fatalf("Describe = %q, want 1011", d)
	}
}

func TestFaultProfilesShrinkZeroesOneRate(t *testing.T) {
	g := FaultProfiles()
	r := rng(10)
	sawEnabled, sawDisabled := false, false
	for i := 0; i < 100; i++ {
		p := g.Generate(r, 50)
		if p.Enabled() {
			sawEnabled = true
		} else {
			sawDisabled = true
		}
		if _, err := p.Scale(1.0); err != nil {
			t.Fatalf("generated profile does not scale: %v", err)
		}
		for _, q := range g.Shrink(p) {
			if q == p {
				t.Fatal("shrink candidate identical to input")
			}
		}
	}
	if !sawEnabled || !sawDisabled {
		t.Fatalf("generator not spanning none→hostile: enabled=%v disabled=%v", sawEnabled, sawDisabled)
	}
}

func TestFloatDescribe(t *testing.T) {
	if got := FloatDescribe([]float64{1.5, math.NaN()}); got != "[1.5 NaN]" {
		t.Fatalf("FloatDescribe = %q", got)
	}
}
