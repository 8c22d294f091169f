// Package runner is the parallel experiment orchestrator of the
// reproduction: it shards a measurement campaign — a board × victim
// circuit × trial matrix, a cross-validation grid, a level sweep —
// across a bounded worker pool while keeping the campaign's outcome a
// pure function of its root seed.
//
// The determinism contract is the whole point. Every shard carries a
// stable string key; its random seed is derived from the campaign seed
// and that key alone (ShardSeed, the same mixing the simulation
// engine's named streams use), never from worker identity, completion
// order, or wall-clock time. Each shard drives its own sim.Engine
// instance, so two shards share no mutable state. Results are collected
// into submission order. Consequently a campaign run with 1, 4, or 16
// workers — or with a different Go scheduler, or on a different machine
// — produces bit-identical results; worker count only changes how fast
// they arrive.
//
// The pool provides campaign cancellation via context and panic
// isolation: a shard that panics reports a failed Result carrying the
// panic value and stack instead of killing the process, so one
// pathological configuration cannot take down an overnight sweep.
// Shard latency, worker utilization, and failure counts stream into
// internal/obs.
package runner

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ShardSeed derives the deterministic seed of the shard with the given
// key under the given campaign seed: root XOR FNV-1a(key). The mixing
// matches sim.Engine.Stream, so a shard key plays the same role for a
// campaign that a stream name plays for an engine: distinct keys give
// decorrelated seeds while the whole campaign remains a pure function
// of the root seed.
func ShardSeed(root int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return root ^ int64(h.Sum64())
}

// Info identifies a shard to its work function.
type Info struct {
	// Key is the shard's stable identifier within the campaign.
	Key string
	// Index is the shard's submission position.
	Index int
	// Seed is ShardSeed(campaign seed, Key). Work functions must draw
	// all their randomness from it (typically by passing it to
	// board.Config.Seed or rand.NewSource) and never from global state.
	Seed int64
}

// Shard is one unit of campaign work.
type Shard[T any] struct {
	// Key must be unique within the campaign and stable across runs; it
	// determines the shard's seed.
	Key string
	// Run executes the shard. ctx carries the campaign cancellation;
	// long-running work should poll ctx.Err() between measurement
	// blocks.
	Run func(ctx context.Context, info Info) (T, error)
}

// Result is one shard's outcome. Results are returned in submission
// order regardless of completion order.
type Result[T any] struct {
	// Key and Index echo the shard's identity.
	Key   string
	Index int
	// Value is the shard's return value; meaningful only when Err is nil.
	Value T
	// Err is the shard's failure, a *PanicError if it panicked, or the
	// context error if the campaign was cancelled before it ran.
	Err error
	// Latency is the shard's wall-clock execution time.
	Latency time.Duration
	// Worker is the index of the worker that executed the shard.
	Worker int
}

// PanicError is the failure recorded for a shard that panicked.
type PanicError struct {
	// Key of the offending shard.
	Key string
	// Value recovered from the panic.
	Value any
	// Stack is the goroutine stack at the point of the panic.
	Stack string
}

// Error implements the error interface. The goroutine stack rides
// along: a campaign surfaces shard panics only through this error, so
// without it the crash site would be unrecoverable.
func (p *PanicError) Error() string {
	if p.Stack == "" {
		return fmt.Sprintf("runner: shard %q panicked: %v", p.Key, p.Value)
	}
	return fmt.Sprintf("runner: shard %q panicked: %v\n%s", p.Key, p.Value, strings.TrimRight(p.Stack, "\n"))
}

// Config parameterizes a campaign.
type Config struct {
	// Name labels the campaign in obs events and spans. Empty means
	// "campaign".
	Name string
	// Seed is the campaign root seed shards derive theirs from.
	Seed int64
	// Workers is the pool size; zero means GOMAXPROCS.
	Workers int
}

func (cfg *Config) fillDefaults() error {
	if cfg.Name == "" {
		cfg.Name = "campaign"
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers < 1 {
		return errors.New("runner: non-positive worker count")
	}
	return nil
}

// Run executes every shard on a pool of cfg.Workers workers and returns
// one Result per shard, in submission order. Shard-level failures
// (including panics) are reported per Result and do not stop the
// campaign; Run's own error is non-nil only for an invalid
// configuration, a duplicate shard key, or campaign cancellation — in
// the cancellation case the partial results are still returned, with
// unstarted shards carrying ctx's error.
func Run[T any](ctx context.Context, cfg Config, shards []Shard[T]) ([]Result[T], error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if s.Run == nil {
			return nil, fmt.Errorf("runner: shard %q has no Run function", s.Key)
		}
		if seen[s.Key] {
			return nil, fmt.Errorf("runner: duplicate shard key %q", s.Key)
		}
		seen[s.Key] = true
	}
	results := make([]Result[T], len(shards))
	for i, s := range shards {
		results[i] = Result[T]{Key: s.Key, Index: i}
	}
	if len(shards) == 0 {
		return results, ctx.Err()
	}
	if cfg.Workers > len(shards) {
		cfg.Workers = len(shards)
	}

	var (
		shardNs     = obs.H("runner.shard_ns")
		shardsDone  = obs.C("runner.shards")
		shardsFail  = obs.C("runner.shards_failed")
		shardsPanic = obs.C("runner.shards_panicked")
		utilization = obs.G("runner.utilization")
	)
	obs.G("runner.workers").Set(float64(cfg.Workers))
	span := obs.StartSpan("runner."+cfg.Name, nil)
	start := time.Now()

	// Workers claim shard indices from a shared counter, so shards start
	// in submission order. After a cancellation every shard still
	// claimed is stamped with ctx's error instead of run, so callers can
	// tell "not run" from "ran and succeeded".
	var next atomic.Int64
	busy := make([]time.Duration, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				r := &results[i]
				r.Worker = w
				if err := ctx.Err(); err != nil {
					r.Err = err
					continue
				}
				info := Info{Key: r.Key, Index: i, Seed: ShardSeed(cfg.Seed, r.Key)}
				shardStart := time.Now()
				r.Value, r.Err = runShard(ctx, shards[i].Run, info)
				r.Latency = time.Since(shardStart)
				busy[w] += r.Latency
				shardNs.Observe(float64(r.Latency.Nanoseconds()))
				shardsDone.Inc()
				if r.Err != nil {
					shardsFail.Inc()
					if pe := (*PanicError)(nil); errors.As(r.Err, &pe) {
						shardsPanic.Inc()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	span.End()

	wall := time.Since(start)
	var busyTotal time.Duration
	for _, b := range busy {
		busyTotal += b
	}
	if wall > 0 {
		utilization.Set(float64(busyTotal) / (float64(wall) * float64(cfg.Workers)))
	}
	return results, ctx.Err()
}

// runShard executes one shard with panic isolation.
func runShard[T any](ctx context.Context, fn func(context.Context, Info) (T, error), info Info) (val T, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &PanicError{Key: info.Key, Value: rec, Stack: string(debug.Stack())}
		}
	}()
	return fn(ctx, info)
}

// Map is the common campaign shape: one shard per key, all running the
// same function. Shard keys are prefix+"/"+key.
func Map[T any](ctx context.Context, cfg Config, prefix string, keys []string, fn func(ctx context.Context, info Info) (T, error)) ([]Result[T], error) {
	shards := make([]Shard[T], len(keys))
	for i, k := range keys {
		shards[i] = Shard[T]{Key: prefix + "/" + k, Run: fn}
	}
	return Run(ctx, cfg, shards)
}

// FirstErr returns the first shard failure in submission order, or nil
// when every shard succeeded — the policy of the serial loops the
// runner replaces, which stopped at the first error.
func FirstErr[T any](results []Result[T]) error {
	for i := range results {
		if results[i].Err != nil {
			return fmt.Errorf("runner: shard %q: %w", results[i].Key, results[i].Err)
		}
	}
	return nil
}

// Values extracts the shard values in submission order; it requires
// FirstErr to have returned nil.
func Values[T any](results []Result[T]) []T {
	out := make([]T, len(results))
	for i := range results {
		out[i] = results[i].Value
	}
	return out
}
