package trace

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// sine builds a trace of n samples containing k full periods plus an
// offset.
func sine(n, k int, amp, offset float64) *Trace {
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = offset + amp*math.Sin(2*math.Pi*float64(k)*float64(i)/float64(n))
	}
	return &Trace{Interval: time.Millisecond, Samples: samples}
}

func TestSpectrumFindsTone(t *testing.T) {
	tr := sine(256, 5, 2.0, 10.0)
	mags, err := tr.Spectrum(10)
	if err != nil {
		t.Fatalf("Spectrum: %v", err)
	}
	if len(mags) != 10 {
		t.Fatalf("bins = %d", len(mags))
	}
	// Bin 5 carries the tone with magnitude ~amp.
	if math.Abs(mags[4]-2.0) > 0.05 {
		t.Fatalf("tone magnitude = %v, want ~2.0", mags[4])
	}
	for i, m := range mags {
		if i != 4 && m > 0.1 {
			t.Fatalf("leakage into bin %d: %v", i+1, m)
		}
	}
}

func TestSpectrumIgnoresDC(t *testing.T) {
	// A pure offset has an empty spectrum.
	tr := &Trace{Interval: time.Millisecond, Samples: []float64{7, 7, 7, 7, 7, 7, 7, 7}}
	mags, err := tr.Spectrum(3)
	if err != nil {
		t.Fatalf("Spectrum: %v", err)
	}
	for i, m := range mags {
		if m > 1e-9 {
			t.Fatalf("bin %d = %v on constant trace", i+1, m)
		}
	}
}

func TestSpectrumErrors(t *testing.T) {
	tr := sine(64, 2, 1, 0)
	if _, err := tr.Spectrum(0); err == nil {
		t.Fatal("zero bins accepted")
	}
	short := &Trace{Interval: time.Millisecond, Samples: []float64{1}}
	if _, err := short.Spectrum(4); err == nil {
		t.Fatal("one-sample trace accepted")
	}
}

func TestSpectrumMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	samples := make([]float64, 128)
	for i := range samples {
		samples[i] = rng.NormFloat64()
	}
	tr := &Trace{Interval: time.Millisecond, Samples: samples}
	mags, err := tr.Spectrum(8)
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, s := range samples {
		mean += s
	}
	mean /= float64(len(samples))
	for k := 1; k <= 8; k++ {
		var re, im float64
		for i, x := range samples {
			phi := 2 * math.Pi * float64(k) * float64(i) / float64(len(samples))
			re += (x - mean) * math.Cos(phi)
			im -= (x - mean) * math.Sin(phi)
		}
		want := math.Sqrt(re*re+im*im) * 2 / float64(len(samples))
		if math.Abs(mags[k-1]-want) > 1e-9 {
			t.Fatalf("bin %d: goertzel %v vs dft %v", k, mags[k-1], want)
		}
	}
}
