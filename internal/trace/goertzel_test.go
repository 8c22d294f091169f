package trace

import "math"

// SpectrumGoertzel computes the same one-sided magnitudes as Spectrum
// using the original per-bin Goertzel recurrence. It is O(n·bins) and
// exists only in tests, as the independent reference implementation
// that the differential property suite and BenchmarkSpectrum pin the
// FFT against.
func (t *Trace) SpectrumGoertzel(bins int) ([]float64, error) {
	bins, mean, finite, err := t.spectrumSetup(bins)
	if err != nil {
		return nil, err
	}
	n := len(t.Samples)
	out := make([]float64, bins)
	if finite == 0 {
		return out, nil
	}
	for k := 1; k <= bins; k++ {
		// Goertzel recurrence for coefficient k (of an n-point DFT).
		w := 2 * math.Pi * float64(k) / float64(n)
		coeff := 2 * math.Cos(w)
		var s0, s1, s2 float64
		for _, x := range t.Samples {
			if IsGap(x) {
				x = mean // a gap contributes zero after mean removal
			}
			s0 = (x - mean) + coeff*s1 - s2
			s2 = s1
			s1 = s0
		}
		re := s1 - s2*math.Cos(w)
		im := s2 * math.Sin(w)
		out[k-1] = math.Sqrt(re*re+im*im) * 2 / float64(n)
	}
	return out, nil
}
