package sim

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// *Rand is a rand.Source64, so rand.New(r) reuses its Uint64 directly.
var _ rand.Source64 = (*Rand)(nil)

// TestRandSize pins the stream's size: the 607-word register and pos,
// 4,864 bytes, the largest object of its allocation size class. A field
// added for the deferred seeding would move every stream into the next
// class, 512 bytes larger.
func TestRandSize(t *testing.T) {
	if got := unsafe.Sizeof(Rand{}); got != 4864 {
		t.Fatalf("unsafe.Sizeof(Rand{}) = %d, want 4864", got)
	}
}

// schrage is math/rand's seedrand: 48271·x mod (2³¹−1) by Schrage's
// method, the division-based reference the folded version replaces.
func schrage(x int32) int32 {
	const (
		A = 48271
		Q = 44488
		R = 3399
	)
	hi := x / Q
	lo := x % Q
	x = A*lo - R*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// TestSeedrandFoldMatchesSchrage checks the Mersenne-folded seedrand
// against Schrage's method on its whole domain, [1, 2³¹−2]. Seed only
// ever feeds it values in that range (zero maps to 89482311, and the
// recurrence never reaches 0 or 2³¹−1).
func TestSeedrandFoldMatchesSchrage(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive over 2³¹−2 inputs; run without -short")
	}
	if raceEnabled {
		t.Skip("exhaustive check is too slow under -race")
	}
	for x := int32(1); x < int32max; x++ {
		if got, want := seedrand(uint32(x)), schrage(x); int32(got) != want {
			t.Fatalf("seedrand(%d) = %d, Schrage gives %d", x, got, want)
		}
	}
}

// seedCases are the seeds the table-driven checks cover: ordinary ones,
// zero and the multiples of 2³¹−1 that reduce to it (the 89482311
// fallback), negatives, and the int64 extremes.
var seedCases = []int64{
	1, 2, 42, 0xB1EED, 1 << 40, -1, -7, -(1 << 40),
	0, int32max, 3 * int32max, -int32max, 1 << 31, int32max - 1,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
}

// TestCookedTableReproducesNewSource: with the cooked table recovered
// from math/rand at init, every seed's raw stream equals
// rand.NewSource's over several refill cycles, reseeding included.
func TestCookedTableReproducesNewSource(t *testing.T) {
	const n = 3*rngLen + 5
	for _, seed := range seedCases {
		got := NewRand(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < n; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 = %#x, math/rand %#x", seed, i, g, w)
			}
		}
		got.Seed(seed + 1)
		want.Seed(seed + 1)
		for i := 0; i < rngLen+1; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("reseeded %d draw %d: Int63 = %d, math/rand %d", seed+1, i, g, w)
			}
		}
	}
}

// TestStreamReproducesMathRand pins Engine.Stream's contract: the named
// stream is math/rand's sequence for root ^ FNV-1a(name), and a second
// request returns the same, already-advanced stream.
func TestStreamReproducesMathRand(t *testing.T) {
	const root = 20250601
	e := MustNewEngine(time.Millisecond, root)
	name := "ina226/fpga"
	h := fnv.New64a()
	h.Write([]byte(name))
	want := rand.New(rand.NewSource(root ^ int64(h.Sum64())))
	s := e.Stream(name)
	for i := 0; i < 2*rngLen; i++ {
		if g, w := s.NormFloat64(), want.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("draw %d: NormFloat64 = %v, math/rand %v", i, g, w)
		}
	}
	if e.Stream(name) != s {
		t.Fatal("Stream returned a fresh stream for a cached name")
	}
	if g, w := e.Stream(name).Float64(), want.Float64(); g != w {
		t.Fatalf("cached stream restarted: Float64 = %v, math/rand %v", g, w)
	}
}

var sinkF float64

// BenchmarkNormFloat64 times one normal draw, the simulator's dominant
// noise call, on sim.Rand and on the *rand.Rand it replaces.
func BenchmarkNormFloat64(b *testing.B) {
	b.Run("sim.Rand", func(b *testing.B) {
		r := NewRand(1)
		s := 0.0
		for i := 0; i < b.N; i++ {
			s += r.NormFloat64()
		}
		sinkF = s
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		s := 0.0
		for i := 0; i < b.N; i++ {
			s += r.NormFloat64()
		}
		sinkF = s
	})
}

// BenchmarkStream times one named stream: creating it (hash, cache),
// the per-component cost every freshly wired board pays ~40 times, and
// creating it plus its first draw, which seeds it.
func BenchmarkStream(b *testing.B) {
	const name = "ina226/fpga"
	for _, draw := range []bool{false, true} {
		label := "create"
		if draw {
			label = "create+first-draw"
		}
		b.Run(label, func(b *testing.B) {
			b.ReportAllocs()
			e := MustNewEngine(500*time.Microsecond, 1)
			for i := 0; i < b.N; i++ {
				delete(e.streams, name)
				r := e.Stream(name)
				if draw {
					r.Uint64()
				}
			}
		})
	}
}
