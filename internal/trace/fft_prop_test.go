package trace_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/trace"
)

// agree reports whether two magnitudes match within the 1e-9 pin of the
// FFT-vs-Goertzel contract (absolute for small values, relative above 1).
func agree(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-9*scale
}

// TestPropSpectrumFFTMatchesGoertzel is the tentpole differential
// property: across contaminated periodic traces (gaps + noise, lengths
// both power-of-two and not, driving the radix-2 and Bluestein paths),
// the FFT-based Spectrum and the Goertzel reference agree bin for bin
// to within 1e-9 at every bin count up to Nyquist.
func TestPropSpectrumFFTMatchesGoertzel(t *testing.T) {
	contaminated := check.PeriodicTraces(check.TraceConfig{GapRate: 0.2, Noise: 0.3})
	check.Forall(t, contaminated, func(c *check.T, p check.PeriodicTrace) {
		tr := p.Trace
		n := len(tr.Samples)
		c.Classify(n&(n-1) == 0, "pow2")
		c.Classify(n&(n-1) != 0, "bluestein")
		for _, bins := range []int{1, n / 4, n / 2, n} { // n clamps to n/2
			if bins < 1 {
				continue
			}
			fft, err := tr.Spectrum(bins)
			if err != nil {
				c.Fatalf("Spectrum(%d): %v", bins, err)
			}
			ref, err := tr.SpectrumGoertzel(bins)
			if err != nil {
				c.Fatalf("SpectrumGoertzel(%d): %v", bins, err)
			}
			if len(fft) != len(ref) {
				c.Fatalf("bins=%d: fft %d mags vs goertzel %d", bins, len(fft), len(ref))
			}
			for k := range fft {
				if !agree(fft[k], ref[k]) {
					c.Errorf("n=%d bins=%d bin %d: fft %v vs goertzel %v (Δ=%g)",
						n, bins, k+1, fft[k], ref[k], math.Abs(fft[k]-ref[k]))
				}
			}
		}
	})
}

// TestPropSpectrumResultNotAliasedToPool: the pooled-scratch bugfix
// contract — mutating a returned spectrum or resample vector must not
// perturb a subsequent call, i.e. returned slices never alias pool
// memory.
func TestPropSpectrumResultNotAliasedToPool(t *testing.T) {
	gappy := check.PeriodicTraces(check.TraceConfig{GapRate: 0.15, Noise: 0.1})
	check.Forall(t, gappy, func(c *check.T, p check.PeriodicTrace) {
		tr := p.Trace
		bins := len(tr.Samples) / 2
		if bins < 1 {
			bins = 1
		}
		first, err := tr.Spectrum(bins)
		if err != nil {
			c.Fatalf("Spectrum: %v", err)
		}
		want := append([]float64(nil), first...)
		for i := range first {
			first[i] = -12345.678 // poison the caller's copy
		}
		second, err := tr.Spectrum(bins)
		if err != nil {
			c.Fatalf("second Spectrum: %v", err)
		}
		for i := range second {
			if second[i] != want[i] {
				c.Fatalf("spectrum bin %d changed after caller mutation: %v -> %v", i, want[i], second[i])
			}
		}

		res1, err := tr.Resample(7)
		if err != nil {
			c.Fatalf("Resample: %v", err)
		}
		wantRes := append([]float64(nil), res1...)
		for i := range res1 {
			res1[i] = math.Inf(1)
		}
		res2, err := tr.Resample(7)
		if err != nil {
			c.Fatalf("second Resample: %v", err)
		}
		for i := range res2 {
			if res2[i] != wantRes[i] {
				c.Fatalf("resample bin %d changed after caller mutation: %v -> %v", i, wantRes[i], res2[i])
			}
		}
	})
}

// TestSpectrumAllGapZero: an all-gap window yields an all-zero spectrum
// on both transform paths (power-of-two and Bluestein lengths).
func TestSpectrumAllGapZero(t *testing.T) {
	for _, n := range []int{64, 100} {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = trace.Gap
		}
		tr := &trace.Trace{Interval: time.Millisecond, Samples: samples}
		mags, err := tr.Spectrum(n / 2)
		if err != nil {
			t.Fatalf("n=%d: Spectrum: %v", n, err)
		}
		if len(mags) != n/2 {
			t.Fatalf("n=%d: got %d bins, want %d", n, len(mags), n/2)
		}
		for k, m := range mags {
			if m != 0 {
				t.Errorf("n=%d: all-gap spectrum bin %d = %v, want 0", n, k+1, m)
			}
		}
	}
}

// TestSpectrumClampsAtNyquist: requesting more bins than n/2 returns
// exactly the n/2 Nyquist-limited prefix on both implementations.
func TestSpectrumClampsAtNyquist(t *testing.T) {
	tr := benchTrace(100, false)
	full, err := tr.Spectrum(50)
	if err != nil {
		t.Fatalf("Spectrum(50): %v", err)
	}
	over, err := tr.Spectrum(99)
	if err != nil {
		t.Fatalf("Spectrum(99): %v", err)
	}
	if len(over) != 50 {
		t.Fatalf("Spectrum(99) returned %d bins, want clamp to 50", len(over))
	}
	for i := range over {
		if over[i] != full[i] {
			t.Errorf("clamped bin %d differs: %v vs %v", i+1, over[i], full[i])
		}
	}
	refOver, err := tr.SpectrumGoertzel(99)
	if err != nil {
		t.Fatalf("SpectrumGoertzel(99): %v", err)
	}
	if len(refOver) != 50 {
		t.Fatalf("SpectrumGoertzel(99) returned %d bins, want 50", len(refOver))
	}
}
