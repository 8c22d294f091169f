package trace

import "errors"

// Spectrum returns the magnitudes of the first bins DFT coefficients of
// the trace (excluding DC). The inference loop of a DPU victim is
// periodic at the query rate, so the low-frequency spectrum is a
// compact fingerprint of a model's period structure — an alternative
// feature set to raw resampling that is invariant to where in the loop
// the capture started.
//
// The transform is an iterative radix-2 FFT (Bluestein chirp-z for
// non-power-of-two lengths), so the cost is O(n log n) regardless of
// bins. The original O(n·bins) per-bin Goertzel recurrence survives only
// in the tests, as the reference the FFT must match to well below 1e-9.
//
// bins is clamped to n/2 (the Nyquist limit): for real input the
// coefficients above n/2 are mirror images of those below, so the old
// behaviour of returning them as extra "features" silently duplicated
// low bins, letting an alias outrank the true peak. The returned slice may therefore be shorter than requested; it is always
// freshly allocated (never aliased to internal scratch), so callers may
// retain or mutate it freely.
//
// NaN gaps are replaced by the finite-sample mean, so a lost sample
// contributes nothing after mean removal but keeps the time base (and
// thus the bin frequencies) intact. An all-gap trace yields an all-zero
// spectrum.
func (t *Trace) Spectrum(bins int) ([]float64, error) {
	bins, mean, finite, err := t.spectrumSetup(bins)
	if err != nil {
		return nil, err
	}
	out := make([]float64, bins)
	if finite == 0 {
		return out, nil // all-gap trace: nothing periodic to report
	}
	spectrumFFT(t.Samples, mean, out)
	return out, nil
}

// spectrumSetup validates arguments, clamps bins to the Nyquist limit,
// and computes the finite-sample mean shared by Spectrum and the
// test-only Goertzel reference.
func (t *Trace) spectrumSetup(bins int) (clamped int, mean float64, finite int, err error) {
	if bins <= 0 {
		return 0, 0, 0, errors.New("trace: non-positive spectrum bins")
	}
	n := len(t.Samples)
	if n < 2 {
		return 0, 0, 0, errors.New("trace: need at least two samples for a spectrum")
	}
	if bins > n/2 {
		bins = n / 2
	}
	// Remove the mean so amplitude offsets (static current) do not mask
	// the periodic structure. Only finite samples inform the mean.
	for _, s := range t.Samples {
		if !IsGap(s) {
			mean += s
			finite++
		}
	}
	if finite > 0 {
		mean /= float64(finite)
	}
	return bins, mean, finite, nil
}
