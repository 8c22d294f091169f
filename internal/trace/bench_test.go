package trace_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/sysfs"
	"repro/internal/trace"
)

// benchTrace builds a deterministic tone-plus-noise trace of n samples
// with a gap sprinkling, the realistic input shape of a capture.
func benchTrace(n int, gaps bool) *trace.Trace {
	rng := rand.New(rand.NewSource(42))
	samples := make([]float64, n)
	for i := range samples {
		v := 1.5 + math.Sin(2*math.Pi*7*float64(i)/float64(n)) + 0.1*rng.NormFloat64()
		if gaps && rng.Float64() < 0.02 {
			v = trace.Gap
		}
		samples[i] = v
	}
	return &trace.Trace{Interval: 35 * time.Millisecond, Samples: samples}
}

// BenchmarkSpectrum covers the FFT at a power-of-two length, the
// Bluestein fallback at the paper-scale capture length (10000 samples ≈
// 5 s at a 2 ms root-retuned interval, bins up to Nyquist), and the
// Goertzel reference at the same shape for the before/after ratio.
func BenchmarkSpectrum(b *testing.B) {
	cases := []struct {
		name     string
		n, bins  int
		goertzel bool
	}{
		{"fft-pow2-4096x1024", 4096, 1024, false},
		{"fft-paper-10000x2500", 10000, 2500, false},
		{"goertzel-paper-10000x2500", 10000, 2500, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			tr := benchTrace(tc.n, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if tc.goertzel {
					_, err = tr.SpectrumGoertzel(tc.bins)
				} else {
					_, err = tr.Spectrum(tc.bins)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkResample measures the pooled average-pooling path at the
// classifier's default width and at a paper-scale width.
func BenchmarkResample(b *testing.B) {
	for _, tc := range []struct{ n, bins int }{{143, 64}, {10000, 64}, {10000, 1024}} {
		b.Run(fmt.Sprintf("%dto%d", tc.n, tc.bins), func(b *testing.B) {
			tr := benchTrace(tc.n, true)
			dst := make([]float64, tc.bins)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tr.ResampleInto(dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSysfsProbe measures one steady-state sensor read between
// latches, as a recorder polls it: "bound" is SysfsProbe (bound file,
// repeated text not re-parsed; allocs/op must report 0), "path" the
// walk-and-parse read it replaced.
func BenchmarkSysfsProbe(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func(*sysfs.FS, sysfs.Cred, string, float64) func() (float64, error)
	}{
		{"bound", trace.SysfsProbe},
		{"path", pathProbe},
	} {
		b.Run(tc.name, func(b *testing.B) {
			soc, err := board.NewZCU102(board.Config{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			soc.Run(time.Second)
			probe := tc.mk(soc.Sysfs(), sysfs.Nobody, "class/hwmon/hwmon0/curr1_input", 1e-3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := probe(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
