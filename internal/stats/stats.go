// Package stats provides the small statistical toolkit used by every
// AmpereBleed experiment: moments, Pearson correlation, ordinary
// least-squares fits, quantiles, and histograms.
//
// All functions operate on float64 slices and never mutate their inputs
// unless documented otherwise. Functions that are undefined for empty
// input return an error rather than NaN so callers surface misuse early.
// The same contract covers contaminated input: any NaN or ±Inf sample
// (a trace gap that was not stripped with Trace.Finite, or sensor
// garbage) yields ErrNonFinite instead of silently propagating NaN
// through a mean or correlation into a report.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned when a statistic is requested over no samples.
var ErrEmpty = errors.New("stats: empty sample")

// ErrLengthMismatch is returned by bivariate statistics when the two
// samples have different lengths.
var ErrLengthMismatch = errors.New("stats: sample length mismatch")

// ErrDegenerate is returned when a statistic is undefined because one of
// the samples has zero variance.
var ErrDegenerate = errors.New("stats: degenerate (zero-variance) sample")

// ErrNonFinite is returned when a sample contains NaN or ±Inf. Trace
// gaps are NaN by convention (trace.Gap); strip them with
// Trace.Finite before computing statistics.
var ErrNonFinite = errors.New("stats: non-finite sample (NaN or Inf)")

// checkFinite returns ErrNonFinite if any element of xs is NaN or ±Inf.
func checkFinite(xs []float64) error {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return ErrNonFinite
		}
	}
	return nil
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if err := checkFinite(xs); err != nil {
		return 0, err
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// MustMean is Mean for callers that have already validated their input;
// it panics on empty or non-finite input.
func MustMean(xs []float64) float64 {
	m, err := Mean(xs)
	if err != nil {
		panic(err)
	}
	return m
}

// Variance returns the population variance of xs (dividing by n, not n-1).
// Side-channel traces are treated as complete populations of the sampled
// window, matching how the paper reports spreads.
func Variance(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	acc := 0.0
	for _, x := range xs {
		d := x - m
		acc += d * d
	}
	return acc / float64(len(xs)), nil
}

// SampleVariance returns the unbiased sample variance (dividing by n-1).
func SampleVariance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	acc := 0.0
	for _, x := range xs {
		d := x - m
		acc += d * d
	}
	return acc / float64(len(xs)-1), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// MinMax returns the minimum and maximum of xs.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	if err := checkFinite(xs); err != nil {
		return 0, 0, err
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Range returns max-min of xs.
func Range(xs []float64) (float64, error) {
	min, max, err := MinMax(xs)
	if err != nil {
		return 0, err
	}
	return max - min, nil
}

// Pearson returns the Pearson product-moment correlation coefficient
// between xs and ys. It is the statistic Fig. 2 of the paper reports for
// each sensor channel against the victim activation level.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if err := checkFinite(xs); err != nil {
		return 0, err
	}
	if err := checkFinite(ys); err != nil {
		return 0, err
	}
	mx := MustMean(xs)
	my := MustMean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, ErrDegenerate
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman returns the rank correlation coefficient between xs and ys:
// Pearson over the rank transforms, with ties assigned their average
// rank. Unlike Pearson it measures any monotone relationship, which
// makes it the right monotonicity check for quantized channels whose
// response is staircase-shaped rather than linear.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	// Validate before ranking: NaN breaks the sort order silently.
	if err := checkFinite(xs); err != nil {
		return 0, err
	}
	if err := checkFinite(ys); err != nil {
		return 0, err
	}
	return Pearson(ranks(xs), ranks(ys))
}

// ranks returns average ranks (1-based) with ties averaged.
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// LinearFit holds the result of an ordinary least-squares fit
// y = Slope*x + Intercept.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64 // coefficient of determination
}

// FitLine computes the least-squares line through (xs, ys). The paper
// fits a linear function per measurement channel in Fig. 2; Slope is the
// "LSBs per setting" figure once divided by the channel's LSB.
func FitLine(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, ErrLengthMismatch
	}
	if len(xs) < 2 {
		return LinearFit{}, ErrEmpty
	}
	if err := checkFinite(xs); err != nil {
		return LinearFit{}, err
	}
	if err := checkFinite(ys); err != nil {
		return LinearFit{}, err
	}
	mx := MustMean(xs)
	my := MustMean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, ErrDegenerate
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		// R² = 1 - SS_res/SS_tot, computed directly from the fit.
		var ssRes float64
		for i := range xs {
			r := ys[i] - (fit.Slope*xs[i] + fit.Intercept)
			ssRes += r * r
		}
		fit.R2 = 1 - ssRes/syy
	}
	return fit, nil
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks (the "R-7" rule used by most
// statistics packages). xs is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	if err := checkFinite(xs); err != nil {
		return 0, err
	}
	return quantileSorted(sortedCopy(xs), q), nil
}

// sortedCopy returns xs sorted ascending in a new slice.
func sortedCopy(xs []float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted
}

// quantileSorted is Quantile on finite, ascending, non-empty sorted.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// FiveNum is the five-number summary used to draw the box plots of
// Fig. 4 (RSA Hamming-weight distributions).
type FiveNum struct {
	Min, Q1, Median, Q3, Max float64
}

// Summary computes the five-number summary of xs. xs is not modified.
func Summary(xs []float64) (FiveNum, error) {
	return summary(xs, false)
}

// SummaryInPlace is Summary for samples nothing reads afterwards: it
// sorts xs in place instead of sorting a copy. A Fig. 4 trace holds
// 40 000 samples, and a copy of it is as much garbage as the trace.
func SummaryInPlace(xs []float64) (FiveNum, error) {
	return summary(xs, true)
}

func summary(xs []float64, inPlace bool) (FiveNum, error) {
	if len(xs) == 0 {
		return FiveNum{}, ErrEmpty
	}
	var s FiveNum
	var err error
	if s.Min, s.Max, err = MinMax(xs); err != nil {
		return FiveNum{}, err
	}
	// One sort serves all three quantiles.
	sorted := xs
	if inPlace {
		sort.Float64s(sorted)
	} else {
		sorted = sortedCopy(xs)
	}
	s.Q1 = quantileSorted(sorted, 0.25)
	s.Median = quantileSorted(sorted, 0.5)
	s.Q3 = quantileSorted(sorted, 0.75)
	return s, nil
}

// IQR returns the interquartile range of the summary.
func (f FiveNum) IQR() float64 { return f.Q3 - f.Q1 }

// Overlaps reports whether the [Q1,Q3] boxes of two summaries overlap.
// Two Hamming-weight classes are "distinguishable" in the Fig. 4 sense
// when their boxes do not overlap.
func (f FiveNum) Overlaps(g FiveNum) bool {
	return f.Q1 <= g.Q3 && g.Q1 <= f.Q3
}

// Histogram bins xs into n equal-width bins over [min,max]. Values equal
// to max land in the last bin. Returns the bin counts and bin width.
func Histogram(xs []float64, n int) (counts []int, width float64, err error) {
	if len(xs) == 0 {
		return nil, 0, ErrEmpty
	}
	if n <= 0 {
		return nil, 0, errors.New("stats: non-positive bin count")
	}
	// MinMax re-checks emptiness but can now also fail on NaN/Inf, so
	// its error is no longer safe to drop on the floor.
	min, max, err := MinMax(xs)
	if err != nil {
		return nil, 0, err
	}
	counts = make([]int, n)
	if min == max {
		counts[0] = len(xs)
		return counts, 0, nil
	}
	width = (max - min) / float64(n)
	for _, x := range xs {
		i := int((x - min) / width)
		if i >= n {
			i = n - 1
		}
		counts[i]++
	}
	return counts, width, nil
}
