package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("Mean: %v", err)
	}
	if m != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", m)
	}
}

func TestMeanEmpty(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Fatalf("Mean(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMustMeanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustMean(nil) did not panic")
		}
	}()
	MustMean(nil)
}

func TestVariance(t *testing.T) {
	v, err := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatalf("Variance: %v", err)
	}
	if v != 4 {
		t.Fatalf("Variance = %v, want 4", v)
	}
}

func TestSampleVariance(t *testing.T) {
	v, err := SampleVariance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatalf("SampleVariance: %v", err)
	}
	if !almostEq(v, 32.0/7.0, 1e-12) {
		t.Fatalf("SampleVariance = %v, want %v", v, 32.0/7.0)
	}
	if _, err := SampleVariance([]float64{1}); err == nil {
		t.Fatal("SampleVariance of one sample should error")
	}
}

func TestStdDev(t *testing.T) {
	s, err := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatalf("StdDev: %v", err)
	}
	if s != 2 {
		t.Fatalf("StdDev = %v, want 2", s)
	}
}

func TestMinMaxRange(t *testing.T) {
	min, max, err := MinMax([]float64{3, -1, 7, 2})
	if err != nil {
		t.Fatalf("MinMax: %v", err)
	}
	if min != -1 || max != 7 {
		t.Fatalf("MinMax = (%v,%v), want (-1,7)", min, max)
	}
	r, err := Range([]float64{3, -1, 7, 2})
	if err != nil || r != 8 {
		t.Fatalf("Range = (%v,%v), want (8,nil)", r, err)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatalf("Pearson: %v", err)
	}
	if !almostEq(r, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", r)
	}
}

func TestPearsonAnticorrelated(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{10, 8, 6, 4, 2}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatalf("Pearson: %v", err)
	}
	if !almostEq(r, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Fatalf("mismatch err = %v", err)
	}
	if _, err := Pearson(nil, nil); err != ErrEmpty {
		t.Fatalf("empty err = %v", err)
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err != ErrDegenerate {
		t.Fatalf("degenerate err = %v", err)
	}
}

func TestSpearmanMonotoneNonlinear(t *testing.T) {
	// Exponential growth: Pearson < 1, Spearman exactly 1.
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x)
	}
	s, err := Spearman(xs, ys)
	if err != nil {
		t.Fatalf("Spearman: %v", err)
	}
	if !almostEq(s, 1, 1e-12) {
		t.Fatalf("Spearman = %v, want 1 for monotone data", s)
	}
	p, _ := Pearson(xs, ys)
	if p >= 0.999 {
		t.Fatalf("Pearson = %v, expected visibly below 1 on exponential data", p)
	}
}

func TestSpearmanTies(t *testing.T) {
	// A quantized staircase: ties get average ranks, correlation stays
	// strongly positive.
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{10, 10, 20, 20, 30, 30}
	s, err := Spearman(xs, ys)
	if err != nil {
		t.Fatalf("Spearman: %v", err)
	}
	if s < 0.9 {
		t.Fatalf("Spearman = %v on a staircase", s)
	}
}

func TestSpearmanErrors(t *testing.T) {
	if _, err := Spearman([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Fatalf("mismatch err = %v", err)
	}
	if _, err := Spearman(nil, nil); err != ErrEmpty {
		t.Fatalf("empty err = %v", err)
	}
	if _, err := Spearman([]float64{1, 1}, []float64{1, 2}); err != ErrDegenerate {
		t.Fatalf("degenerate err = %v", err)
	}
}

func TestRanks(t *testing.T) {
	got := ranks([]float64{30, 10, 20, 10})
	want := []float64{4, 1.5, 3, 1.5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", got, want)
		}
	}
}

func TestFitLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x + 1
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatalf("FitLine: %v", err)
	}
	if !almostEq(fit.Slope, 2, 1e-12) || !almostEq(fit.Intercept, 1, 1e-12) {
		t.Fatalf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if !almostEq(fit.R2, 1, 1e-12) {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitLineNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 3*xs[i] + 10 + rng.NormFloat64()
	}
	fit, err := FitLine(xs, ys)
	if err != nil {
		t.Fatalf("FitLine: %v", err)
	}
	if !almostEq(fit.Slope, 3, 0.01) {
		t.Fatalf("Slope = %v, want ~3", fit.Slope)
	}
	if fit.R2 < 0.999 {
		t.Fatalf("R2 = %v, want >0.999", fit.R2)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	med, err := Quantile(xs, 0.5)
	if err != nil {
		t.Fatalf("Quantile: %v", err)
	}
	if med != 2.5 {
		t.Fatalf("median = %v, want 2.5", med)
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Fatal("Quantile mutated its input")
	}
	lo, _ := Quantile(xs, 0)
	hi, _ := Quantile(xs, 1)
	if lo != 1 || hi != 4 {
		t.Fatalf("q0=%v q1=%v, want 1 and 4", lo, hi)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("out-of-range quantile should error")
	}
}

func TestSummaryAndOverlap(t *testing.T) {
	a, err := Summary([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatalf("Summary: %v", err)
	}
	if a.Min != 1 || a.Max != 5 || a.Median != 3 {
		t.Fatalf("summary = %+v", a)
	}
	b, _ := Summary([]float64{10, 11, 12})
	if a.Overlaps(b) {
		t.Fatal("disjoint boxes reported as overlapping")
	}
	c, _ := Summary([]float64{2, 3, 4})
	if !a.Overlaps(c) {
		t.Fatal("overlapping boxes reported as disjoint")
	}
	if a.IQR() != a.Q3-a.Q1 {
		t.Fatal("IQR inconsistent")
	}
}

func TestHistogram(t *testing.T) {
	counts, width, err := Histogram([]float64{0, 0.5, 1, 1.5, 2}, 2)
	if err != nil {
		t.Fatalf("Histogram: %v", err)
	}
	if width != 1 {
		t.Fatalf("width = %v, want 1", width)
	}
	if counts[0] != 2 || counts[1] != 3 {
		t.Fatalf("counts = %v, want [2 3]", counts)
	}
}

func TestHistogramConstant(t *testing.T) {
	counts, width, err := Histogram([]float64{5, 5, 5}, 4)
	if err != nil {
		t.Fatalf("Histogram: %v", err)
	}
	if width != 0 || counts[0] != 3 {
		t.Fatalf("constant histogram = %v width %v", counts, width)
	}
}

// Property: Pearson is invariant under positive affine transforms and
// bounded by [-1, 1].
func TestPearsonProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(64)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r, err := Pearson(xs, ys)
		if err != nil {
			return true // degenerate draws are fine
		}
		if r < -1-1e-9 || r > 1+1e-9 {
			return false
		}
		// Affine transform of xs with positive scale preserves r.
		scaled := make([]float64, n)
		for i := range xs {
			scaled[i] = 3.7*xs[i] + 11
		}
		r2, err := Pearson(scaled, ys)
		if err != nil {
			return false
		}
		return almostEq(r, r2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the five-number summary is ordered min<=Q1<=median<=Q3<=max.
func TestSummaryOrderedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		s, err := Summary(xs)
		if err != nil {
			return false
		}
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Summary and SummaryInPlace both equal MinMax and one
// Quantile call per quartile, bit for bit; Summary leaves xs as it was.
// The samples are quantized, so ties are common, as in an ADC trace.
func TestSummaryMatchesQuantiles(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(300))
		for i := range xs {
			xs[i] = math.Round(rng.NormFloat64()*8) * 0.25
		}
		var want FiveNum
		want.Min, want.Max, _ = MinMax(xs)
		want.Q1, _ = Quantile(xs, 0.25)
		want.Median, _ = Quantile(xs, 0.5)
		want.Q3, _ = Quantile(xs, 0.75)
		orig := append([]float64(nil), xs...)
		got, err := Summary(xs)
		if err != nil || got != want {
			return false
		}
		for i := range xs {
			if xs[i] != orig[i] {
				return false
			}
		}
		got, err = SummaryInPlace(xs)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram counts sum to the number of samples.
func TestHistogramTotalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		bins := 1 + rng.Intn(20)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 50
		}
		counts, _, err := Histogram(xs, bins)
		if err != nil {
			return false
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
