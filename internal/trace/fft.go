// Fast Fourier transform kernel behind Trace.Spectrum.
//
// The fingerprinting pipeline's spectral feature path used to compute
// each DFT bin with an independent O(n) Goertzel pass, making a
// bins-wide spectrum O(n·bins) — a throughput wall at paper-scale
// captures (thousands of samples, bins up to n/2). This file replaces
// the inner transform with an iterative radix-2 Cooley–Tukey FFT for
// power-of-two lengths and a Bluestein chirp-z fallback for everything
// else, so any bin count costs O(n log n).
//
// All scratch (complex work buffers, twiddle tables, chirp vectors)
// comes from a sync.Pool and never aliases returned slices: Spectrum
// hands back freshly allocated magnitudes, so callers may retain or
// mutate results without poisoning later calls.
package trace

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// fftScratch is the reusable working set of one spectrum computation.
// buf/tw back the radix-2 path directly; a, b, bt are the Bluestein
// convolution operands (sized to the padded power-of-two length).
type fftScratch struct {
	buf []complex128 // transform input/output
	tw  []complex128 // twiddle table, len(buf)/2 entries
	a   []complex128 // Bluestein: chirp-premultiplied signal
	b   []complex128 // Bluestein: chirp filter
	bt  []complex128 // Bluestein: FFT of the chirp filter
}

var fftPool = sync.Pool{New: func() any { return new(fftScratch) }}

// grow returns s resized to at least n elements, reusing capacity.
func grow(s []complex128, n int) []complex128 {
	if cap(s) < n {
		return make([]complex128, n)
	}
	return s[:n]
}

// twiddles fills tw[j] = exp(-2πi·j/n) for j in [0, n/2). The table is
// computed with one trig call per entry (no incremental rotation), so
// twiddle error stays at a few ulps regardless of n.
func twiddles(tw []complex128, n int) {
	for j := range tw {
		phi := -2 * math.Pi * float64(j) / float64(n)
		s, c := math.Sincos(phi)
		tw[j] = complex(c, s)
	}
}

// fftInPlace runs an in-place iterative radix-2 transform over a,
// whose length must be a power of two. tw is the forward twiddle table
// of len(a)/2 entries; inverse conjugates it (the caller applies any
// 1/n scaling).
func fftInPlace(a []complex128, tw []complex128, inverse bool) {
	n := len(a)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		half := length >> 1
		step := n / length
		for start := 0; start < n; start += length {
			k := 0
			for i := start; i < start+half; i++ {
				w := tw[k]
				if inverse {
					w = cmplx.Conj(w)
				}
				v := a[i+half] * w
				a[i+half] = a[i] - v
				a[i] = a[i] + v
				k += step
			}
		}
	}
}

// nextPow2 returns the smallest power of two >= n.
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// spectrumFFT computes the one-sided magnitudes of DFT coefficients
// 1..len(out) of the mean-removed trace (gaps contribute zero), using
// the radix-2 transform directly when n is a power of two and the
// Bluestein chirp-z algorithm otherwise. The semantics — including the
// ×2/n one-sided normalization — match the Goertzel reference bin for
// bin to well below 1e-9.
func spectrumFFT(samples []float64, mean float64, out []float64) {
	n := len(samples)
	s := fftPool.Get().(*fftScratch)
	defer fftPool.Put(s)

	if n&(n-1) == 0 {
		s.buf = grow(s.buf, n)
		s.tw = grow(s.tw, n/2)
		twiddles(s.tw, n)
		for i, x := range samples {
			if IsGap(x) {
				s.buf[i] = 0
			} else {
				s.buf[i] = complex(x-mean, 0)
			}
		}
		fftInPlace(s.buf, s.tw, false)
		scale := 2 / float64(n)
		for k := range out {
			out[k] = cmplx.Abs(s.buf[k+1]) * scale
		}
		return
	}

	// Bluestein: X_k = w_k · (a ⊛ b)_k with a_j = x_j·w_j and
	// b_j = conj(w_j), where w_j = exp(-iπ·j²/n). The circular
	// convolution runs over a power-of-two length m >= 2n-1. Chirp
	// angles index j² modulo 2n (the chirp's true period), so the
	// argument passed to Sincos never grows with j² and the phase
	// keeps full precision for long traces.
	m := nextPow2(2*n - 1)
	s.a = grow(s.a, m)
	s.b = grow(s.b, m)
	s.bt = grow(s.bt, m)
	s.tw = grow(s.tw, m/2)
	twiddles(s.tw, m)

	for i := range s.a {
		s.a[i] = 0
		s.b[i] = 0
	}
	for j := 0; j < n; j++ {
		j2 := (j * j) % (2 * n)
		phi := -math.Pi * float64(j2) / float64(n)
		sin, cos := math.Sincos(phi)
		w := complex(cos, sin)
		x := samples[j]
		if IsGap(x) {
			x = mean
		}
		s.a[j] = complex(x-mean, 0) * w
		cw := cmplx.Conj(w)
		s.b[j] = cw
		if j > 0 {
			s.b[m-j] = cw // wrap-around for the circular convolution
		}
	}
	fftInPlace(s.a, s.tw, false)
	fftInPlace(s.b, s.tw, false)
	for i := range s.a {
		s.a[i] *= s.b[i]
	}
	fftInPlace(s.a, s.tw, true)
	invM := 1 / float64(m)
	scale := 2 / float64(n)
	for k := range out {
		j := k + 1
		j2 := (j * j) % (2 * n)
		phi := -math.Pi * float64(j2) / float64(n)
		sin, cos := math.Sincos(phi)
		w := complex(cos, sin)
		out[k] = cmplx.Abs(s.a[j]*w) * invM * scale
	}
}
