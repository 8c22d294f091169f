package trace

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestNextBackoffDoublingWithoutRand(t *testing.T) {
	p := RetryPolicy{}.WithDefaults(time.Millisecond)
	want := []time.Duration{2, 4, 8, 8, 8} // milliseconds, capped at MaxBackoff
	b := p.BaseBackoff
	for i, w := range want {
		b = p.NextBackoff(b)
		if b != w*time.Millisecond {
			t.Fatalf("step %d: backoff = %v, want %v", i, b, w*time.Millisecond)
		}
	}
}

func TestNextBackoffDecorrelatedJitterBounds(t *testing.T) {
	p := RetryPolicy{}.WithDefaults(time.Millisecond)
	p.Rand = sim.NewRand(1)
	prev := p.BaseBackoff
	for i := 0; i < 1000; i++ {
		next := p.NextBackoff(prev)
		if next < p.BaseBackoff {
			t.Fatalf("step %d: backoff %v below base %v", i, next, p.BaseBackoff)
		}
		if next > p.MaxBackoff {
			t.Fatalf("step %d: backoff %v above cap %v", i, next, p.MaxBackoff)
		}
		if lim := 3 * prev; next > lim {
			t.Fatalf("step %d: backoff %v above 3*prev %v", i, next, lim)
		}
		prev = next
	}
}

func TestNextBackoffJitterDeterministicPerSeed(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		p := RetryPolicy{}.WithDefaults(time.Millisecond)
		p.Rand = sim.NewRand(seed)
		out := make([]time.Duration, 0, 32)
		b := p.BaseBackoff
		for i := 0; i < 32; i++ {
			b = p.NextBackoff(b)
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
