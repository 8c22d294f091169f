package runner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("shard%03d", i)
	}
	return out
}

// TestOrderedResults checks that results come back in submission order
// even when later shards finish first.
func TestOrderedResults(t *testing.T) {
	res, err := Map(context.Background(), Config{Workers: 4, Seed: 7}, "order", keys(16),
		func(ctx context.Context, info Info) (string, error) {
			// Earlier shards sleep longer, so completion order is roughly
			// the reverse of submission order.
			time.Sleep(time.Duration(16-info.Index) * time.Millisecond)
			return info.Key, nil
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := FirstErr(res); got != nil {
		t.Fatalf("FirstErr: %v", got)
	}
	for i, r := range res {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
		if want := "order/" + fmt.Sprintf("shard%03d", i); r.Key != want || r.Value != want {
			t.Errorf("result %d = (%q,%q), want %q", i, r.Key, r.Value, want)
		}
		if r.Latency <= 0 {
			t.Errorf("result %d has non-positive latency %v", i, r.Latency)
		}
		if r.Worker < 0 || r.Worker >= 4 {
			t.Errorf("result %d ran on worker %d", i, r.Worker)
		}
	}
}

// TestDeterministicAcrossWorkerCounts is the package-level statement of
// the core guarantee: the same campaign produces bit-identical values
// for any worker count.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	campaign := func(workers int) []float64 {
		res, err := Map(context.Background(), Config{Workers: workers, Seed: 99}, "det", keys(24),
			func(ctx context.Context, info Info) (float64, error) {
				rng := rand.New(rand.NewSource(info.Seed))
				sum := 0.0
				for i := 0; i < 100; i++ {
					sum += rng.NormFloat64()
				}
				return sum, nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := FirstErr(res); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return Values(res)
	}
	base := campaign(1)
	for _, w := range []int{2, 4, 16} {
		if got := campaign(w); !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d produced different values than workers=1", w)
		}
	}
}

// TestShardSeedStable pins the seed derivation: changing it would
// silently re-seed every campaign in the repository.
func TestShardSeedStable(t *testing.T) {
	if ShardSeed(1, "a") == ShardSeed(1, "b") {
		t.Error("distinct keys share a seed")
	}
	if ShardSeed(1, "a") == ShardSeed(2, "a") {
		t.Error("distinct roots share a seed")
	}
	// FNV-1a of "x/0" xored with root 1, the value core's capture seeds
	// have used since PR 1; a change here breaks replayability of saved
	// capture files.
	if got, want := ShardSeed(1, "x/0"), int64(-4697271894025577511); got != want {
		t.Errorf("ShardSeed(1, \"x/0\") = %d, want %d", got, want)
	}
}

// TestPanicIsolation checks a panicking shard fails alone.
func TestPanicIsolation(t *testing.T) {
	res, err := Map(context.Background(), Config{Workers: 3}, "p", keys(9),
		func(ctx context.Context, info Info) (int, error) {
			if info.Index == 4 {
				panic("synthetic shard crash")
			}
			return info.Index, nil
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, r := range res {
		if i == 4 {
			var pe *PanicError
			if !errors.As(r.Err, &pe) {
				t.Fatalf("shard 4 error = %v, want PanicError", r.Err)
			}
			if pe.Value != "synthetic shard crash" || !strings.Contains(pe.Stack, "runner") {
				t.Errorf("panic error = %+v missing value or stack", pe)
			}
			if !strings.Contains(pe.Error(), "p/shard004") {
				t.Errorf("panic error text %q lacks shard key", pe.Error())
			}
			continue
		}
		if r.Err != nil || r.Value != i {
			t.Errorf("shard %d = (%d, %v), want (%d, nil)", i, r.Value, r.Err, i)
		}
	}
	if err := FirstErr(res); err == nil || !strings.Contains(err.Error(), "shard004") {
		t.Errorf("FirstErr = %v, want shard004 panic", err)
	}
}

// TestCancellation checks that cancelling the campaign context stops
// dispatch and stamps every unstarted shard with the context error.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	res, err := Map(ctx, Config{Workers: 1}, "c", keys(32),
		func(ctx context.Context, info Info) (int, error) {
			if started.Add(1) == 2 {
				cancel()
			}
			return info.Index, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if n := started.Load(); n != 2 {
		t.Errorf("%d shards ran, want 2 (the one that cancelled and its predecessor)", n)
	}
	var stamped int
	for _, r := range res {
		if errors.Is(r.Err, context.Canceled) {
			stamped++
		}
	}
	if stamped != 30 {
		t.Errorf("%d shards carry the cancellation error, want the 30 that never ran", stamped)
	}
}

// TestConfigValidation covers the rejected configurations.
func TestConfigValidation(t *testing.T) {
	bg := context.Background()
	ok := func(ctx context.Context, info Info) (int, error) { return 0, nil }
	cases := []struct {
		name   string
		cfg    Config
		shards []Shard[int]
	}{
		{"negative workers", Config{Workers: -1}, []Shard[int]{{Key: "a", Run: ok}}},
		{"nil run", Config{}, []Shard[int]{{Key: "a"}}},
		{"duplicate key", Config{}, []Shard[int]{{Key: "a", Run: ok}, {Key: "a", Run: ok}}},
	}
	for _, tc := range cases {
		if _, err := Run(bg, tc.cfg, tc.shards); err == nil {
			t.Errorf("%s: Run accepted invalid input", tc.name)
		}
	}
	res, err := Run(bg, Config{}, []Shard[int]{})
	if err != nil || len(res) != 0 {
		t.Errorf("empty campaign = (%v, %v), want ([], nil)", res, err)
	}
}

// TestWorkersClampedToShards checks a huge pool does not spawn more
// workers than shards (worker indices stay in range).
func TestWorkersClampedToShards(t *testing.T) {
	res, err := Map(context.Background(), Config{Workers: 64}, "w", keys(3),
		func(ctx context.Context, info Info) (int, error) { return info.Index, nil })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, r := range res {
		if r.Worker < 0 || r.Worker >= 3 {
			t.Errorf("shard %s ran on worker %d, want [0,3)", r.Key, r.Worker)
		}
	}
}

// TestShardErrorsDoNotStopCampaign checks ordinary errors are collected
// per shard while the rest of the campaign completes.
func TestShardErrorsDoNotStopCampaign(t *testing.T) {
	sentinel := errors.New("measurement failed")
	res, err := Map(context.Background(), Config{Workers: 2}, "e", keys(8),
		func(ctx context.Context, info Info) (int, error) {
			if info.Index%3 == 0 {
				return 0, sentinel
			}
			return info.Index, nil
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, r := range res {
		wantErr := i%3 == 0
		if (r.Err != nil) != wantErr {
			t.Errorf("shard %d error = %v, want error=%v", i, r.Err, wantErr)
		}
		if wantErr && !errors.Is(r.Err, sentinel) {
			t.Errorf("shard %d error = %v, want sentinel", i, r.Err)
		}
	}
	if err := FirstErr(res); !errors.Is(err, sentinel) {
		t.Errorf("FirstErr = %v, want sentinel", err)
	}
}

// TestPanicErrorTextCarriesStack pins that the shard error surfaces the
// goroutine stack of the panic site, so a crash inside a parallel
// experiment is debuggable from the top-level error alone.
func TestPanicErrorTextCarriesStack(t *testing.T) {
	boom := func() { panic("deep crash") }
	res, err := Map(context.Background(), Config{Workers: 2}, "stk", keys(2),
		func(ctx context.Context, info Info) (int, error) {
			if info.Index == 1 {
				boom()
			}
			return 0, nil
		})
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	ferr := FirstErr(res)
	if ferr == nil {
		t.Fatal("no shard error for a panicking shard")
	}
	text := ferr.Error()
	if !strings.Contains(text, "goroutine") || !strings.Contains(text, "runner_test.go") {
		t.Errorf("error text lacks the panic stack:\n%s", text)
	}
	var pe *PanicError
	if !errors.As(ferr, &pe) || pe.Stack == "" {
		t.Errorf("FirstErr did not preserve the PanicError stack: %v", ferr)
	}
}
