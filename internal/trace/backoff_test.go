package trace

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestNextBackoffDecorrelatedJitterBounds(t *testing.T) {
	rng := sim.NewRand(1)
	prev := baseBackoff
	for i := 0; i < 1000; i++ {
		next := nextBackoff(prev, rng)
		if next < baseBackoff {
			t.Fatalf("step %d: backoff %v below base %v", i, next, baseBackoff)
		}
		if next > maxBackoff {
			t.Fatalf("step %d: backoff %v above cap %v", i, next, maxBackoff)
		}
		if lim := 3 * prev; next > lim {
			t.Fatalf("step %d: backoff %v above 3*prev %v", i, next, lim)
		}
		prev = next
	}
}

func TestNextBackoffJitterDeterministicPerSeed(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		rng := sim.NewRand(seed)
		out := make([]time.Duration, 0, 32)
		b := baseBackoff
		for i := 0; i < 32; i++ {
			b = nextBackoff(b, rng)
			out = append(out, b)
		}
		return out
	}
	a, b := seq(7), seq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at step %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced the identical 32-step jitter sequence")
	}
}
