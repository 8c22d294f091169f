package imagenet

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestDeterministicStream(t *testing.T) {
	a, err := New(sim.NewRand(3))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	b, _ := New(sim.NewRand(3))
	for i := 0; i < 100; i++ {
		aw, ah := a.Next()
		bw, bh := b.Next()
		if aw != bw || ah != bh {
			t.Fatal("same seed produced different queries")
		}
	}
}

func TestDimensionsRealistic(t *testing.T) {
	s, _ := New(sim.NewRand(5))
	var sumW, sumH int
	const n = 5000
	for i := 0; i < n; i++ {
		w, h := s.Next()
		if w < minSide || w > maxSide || h < minSide || h > maxSide {
			t.Fatalf("dimensions %dx%d out of range", w, h)
		}
		sumW += w
		sumH += h
	}
	meanW := float64(sumW) / n
	meanH := float64(sumH) / n
	if meanW < 450 || meanW > 550 {
		t.Fatalf("mean width = %v, want ~500", meanW)
	}
	if meanH < 330 || meanH > 420 {
		t.Fatalf("mean height = %v, want ~375", meanH)
	}
}

func TestFixed(t *testing.T) {
	f := Fixed{Width: 320, Height: 240}
	for i := 0; i < 3; i++ {
		w, h := f.Next()
		if w != 320 || h != 240 {
			t.Fatalf("Fixed returned %dx%d", w, h)
		}
	}
}

// Property: dimensions are always within the documented bounds.
func TestBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		s, err := New(sim.NewRand(seed))
		if err != nil {
			return false
		}
		for i := 0; i < 50; i++ {
			w, h := s.Next()
			if w < minSide || w > maxSide || h < minSide || h > maxSide {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
