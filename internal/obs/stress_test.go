package obs_test

// Concurrency stress for the span tracer and its consumers, meant to
// run under -race: spans start and end on many goroutines while other
// goroutines snapshot the registry and export Chrome traces. Guards the lock discipline around the bounded span
// ring that PR 4 grew for trace export.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/export"
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
	// Readers: snapshots and trace exports race against the writers.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot()
				if _, err := export.Marshal(snap); err != nil {
					t.Errorf("export during stress: %v", err)
					return
				}
				_ = r.RecentSpans()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	snap := r.Snapshot()
	if got := len(snap.RecentSpans); got != obs.SpanRingSize {
		t.Fatalf("span ring holds %d records, want full ring of %d", got, obs.SpanRingSize)
	}
	var total int64
	for _, n := range names {
		h, ok := snap.Histogram("span." + n + ".wall_ns")
		if !ok {
			t.Fatalf("missing span histogram for %s", n)
		}
		total += h.Count
	}
	if want := int64(writers * iters); total != want {
		t.Fatalf("span histograms hold %d observations, want %d", total, want)
	}
}

func TestSpanRingBoundedAndOrdered(t *testing.T) {
	r := obs.NewRegistry()
	for i := 0; i < obs.SpanRingSize+100; i++ {
		r.StartSpan("bounded", nil).End()
	}
	spans := r.RecentSpans()
	if len(spans) != obs.SpanRingSize {
		t.Fatalf("retained %d spans, want %d", len(spans), obs.SpanRingSize)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].EndedAt.Before(spans[i-1].EndedAt) {
			t.Fatalf("span %d out of order", i)
		}
	}
}
