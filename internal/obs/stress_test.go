package obs_test

// Concurrency stress for the span tracer, meant to run under -race:
// spans start and end on many goroutines while other goroutines
// snapshot the registry. Every span must land in its histograms, none
// dropped and none counted twice.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// raceClock is a deliberately shared SimClock; its mutex keeps the
// clock itself race-free so the race detector watches the tracer, not
// the test fixture.
type raceClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *raceClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now += time.Microsecond
	return c.now
}

func TestSpanTracerConcurrentStress(t *testing.T) {
	r := obs.NewRegistry()
	clock := &raceClock{}
	const (
		writers = 8
		iters   = 500
	)
	var wg sync.WaitGroup
	names := []string{"stress.a", "stress.b", "stress.c"}
	wantWall := make(map[string]int64)
	wantSim := make(map[string]int64)
	for w := 0; w < writers; w++ {
		for i := 0; i < iters; i++ {
			n := names[(w+i)%len(names)]
			wantWall[n]++
			if i%2 == 0 {
				wantSim[n]++
			}
		}
	}
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var c obs.SimClock
				if i%2 == 0 {
					c = clock
				}
				s := r.StartSpan(names[(w+i)%len(names)], c)
				s.End()
			}
		}()
	}
	// Readers: snapshots race against the writers, and no histogram
	// count may ever run backwards.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := make(map[string]int64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k, h := range r.Snapshot().Histograms {
					if h.Count < last[k] {
						t.Errorf("%s count went from %d to %d", k, last[k], h.Count)
						return
					}
					last[k] = h.Count
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	snap := r.Snapshot()
	for _, n := range names {
		for suffix, want := range map[string]int64{".wall_ns": wantWall[n], ".sim_ns": wantSim[n]} {
			h, ok := snap.Histogram("span." + n + suffix)
			if !ok || h.Count != want {
				t.Errorf("span.%s%s: count %d (present %v), want %d", n, suffix, h.Count, ok, want)
			}
		}
	}
}
