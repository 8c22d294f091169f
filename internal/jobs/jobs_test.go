package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/runner"
)

// seedEcho is the simplest deterministic shard: it returns its derived
// seed, so result correctness is checkable against runner.ShardSeed.
func seedEcho(_ context.Context, info runner.Info) (json.RawMessage, error) {
	return json.Marshal(info.Seed)
}

// attemptCounter tracks per-key invocation counts, across lives too.
type attemptCounter struct {
	mu    sync.Mutex
	calls map[string]int
}

func newAttemptCounter() *attemptCounter {
	return &attemptCounter{calls: make(map[string]int)}
}

func (a *attemptCounter) bump(key string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.calls[key]++
}

func (a *attemptCounter) count(key string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.calls[key]
}

func demoKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "demo/" + strconv.Itoa(i)
	}
	return keys
}

func TestRunCompletesAllShards(t *testing.T) {
	spec := Spec{Seed: 42, Workers: 4}
	keys := demoKeys(17)
	out, err := Run(context.Background(), spec, keys, seedEcho)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed() != 17 || len(out.Quarantined) != 0 {
		t.Fatalf("completed %d quarantined %d, want 17/0", out.Completed(), len(out.Quarantined))
	}
	if out.Rounds != 3 {
		t.Errorf("rounds = %d, want 3 (17 shards in rounds of 8)", out.Rounds)
	}
	for _, k := range keys {
		var got int64
		if err := json.Unmarshal(out.Results[k], &got); err != nil {
			t.Fatal(err)
		}
		if want := runner.ShardSeed(42, k); got != want {
			t.Errorf("shard %s seed = %d, want %d", k, got, want)
		}
	}
}

// TestRunQuarantinesPersistentFailure: a failing shard is quarantined
// on its first failure and never re-run, since a shard is a pure
// function of its seed.
func TestRunQuarantinesPersistentFailure(t *testing.T) {
	attempts := newAttemptCounter()
	shard := func(_ context.Context, info runner.Info) (json.RawMessage, error) {
		attempts.bump(info.Key)
		if info.Key == "demo/0" {
			return nil, errors.New("hardware on fire")
		}
		return json.Marshal(info.Seed)
	}
	out, err := Run(context.Background(), Spec{Seed: 1}, demoKeys(3), shard)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed() != 2 {
		t.Errorf("completed = %d, want 2", out.Completed())
	}
	if msg, ok := out.Quarantined["demo/0"]; !ok || msg != "hardware on fire" {
		t.Errorf("quarantine record = %q, %v; want the shard error", msg, ok)
	}
	for _, k := range demoKeys(3) {
		if got := attempts.count(k); got != 1 {
			t.Errorf("shard %s ran %d times, want exactly 1", k, got)
		}
	}
}

func TestRunQuarantinesPanickingShard(t *testing.T) {
	shard := func(_ context.Context, info runner.Info) (json.RawMessage, error) {
		if info.Key == "demo/1" {
			panic("bug in shard")
		}
		return json.Marshal(info.Seed)
	}
	out, err := Run(context.Background(), Spec{Seed: 1}, demoKeys(2), shard)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.Quarantined["demo/1"]; !ok {
		t.Errorf("panicking shard not quarantined: %+v", out.Quarantined)
	}
	if out.Completed() != 1 {
		t.Errorf("completed = %d, want 1", out.Completed())
	}
}

var errKill = errors.New("chaos: die at barrier")

func TestRunCheckpointResume(t *testing.T) {
	cpPath := filepath.Join(t.TempDir(), "cp.json")
	keys := demoKeys(20)
	attempts := newAttemptCounter()
	shard := func(_ context.Context, info runner.Info) (json.RawMessage, error) {
		attempts.bump(info.Key)
		return json.Marshal(info.Seed)
	}

	// First life: die right after the round-1 barrier commit.
	spec := Spec{RunID: "life-1", Seed: 9, CheckpointPath: cpPath,
		OnBarrier: func(cp *Checkpoint, round int) error {
			if round >= 1 {
				return errKill
			}
			return nil
		}}
	if _, err := Run(context.Background(), spec, keys, shard); !errors.Is(err, errKill) {
		t.Fatalf("first life = %v, want the chaos kill", err)
	}

	cp, err := LoadCheckpoint(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Completed) != roundSize || cp.Rounds != 1 {
		t.Fatalf("checkpoint after kill: %d completed, %d rounds; want %d/1", len(cp.Completed), cp.Rounds, roundSize)
	}

	// Second life: resume, finish the remaining rounds only.
	spec.RunID = "life-2"
	spec.OnBarrier = nil
	out, err := Run(context.Background(), spec, keys, shard)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed() != 20 {
		t.Fatalf("completed = %d, want 20", out.Completed())
	}
	if out.ResumedShards != roundSize {
		t.Errorf("resumed shards = %d, want %d", out.ResumedShards, roundSize)
	}
	if out.ParentRunID != "life-1" {
		t.Errorf("parent run = %q, want life-1", out.ParentRunID)
	}
	if out.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", out.Rounds)
	}
	for _, k := range keys {
		if got := attempts.count(k); got != 1 {
			t.Errorf("shard %s ran %d times across both lives, want exactly 1", k, got)
		}
	}
	// The checkpoint now carries the new lineage.
	cp, err = LoadCheckpoint(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	if cp.RunID != "life-2" || cp.ParentRunID != "life-1" {
		t.Errorf("checkpoint lineage = %q/%q, want life-2/life-1", cp.RunID, cp.ParentRunID)
	}
}

func TestRunResumeRejectsMismatchedSpec(t *testing.T) {
	cpPath := filepath.Join(t.TempDir(), "cp.json")
	keys := demoKeys(2)
	spec := Spec{Seed: 9, CheckpointPath: cpPath,
		OnBarrier: func(cp *Checkpoint, round int) error { return errKill }}
	if _, err := Run(context.Background(), spec, keys, seedEcho); !errors.Is(err, errKill) {
		t.Fatalf("first life = %v, want the chaos kill", err)
	}
	spec.OnBarrier = nil
	spec.Seed = 10
	if _, err := Run(context.Background(), spec, keys, seedEcho); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("resume with different seed = %v, want ErrCheckpointMismatch", err)
	}
}

func TestRunBanksAndRestoresCounters(t *testing.T) {
	defer obs.Default.Reset()
	obs.Default.Reset()

	const name = "test.jobs.banked_counter"
	cpPath := filepath.Join(t.TempDir(), "cp.json")
	keys := demoKeys(20)
	shard := func(_ context.Context, info runner.Info) (json.RawMessage, error) {
		obs.C(name).Inc() // one deterministic increment per shard execution
		return json.Marshal(info.Seed)
	}

	spec := Spec{Seed: 9, CheckpointPath: cpPath,
		OnBarrier: func(cp *Checkpoint, round int) error {
			if round >= 2 {
				return errKill
			}
			return nil
		}}
	if _, err := Run(context.Background(), spec, keys, shard); !errors.Is(err, errKill) {
		t.Fatalf("first life = %v, want the chaos kill", err)
	}
	cp, err := LoadCheckpoint(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := cp.Counters[name]; got != 2*roundSize {
		t.Fatalf("banked counter = %d, want %d (two rounds)", got, 2*roundSize)
	}

	// Process death: the registry is wiped; resume must restore the bank.
	obs.Default.Reset()
	spec.OnBarrier = nil
	if _, err := Run(context.Background(), spec, keys, shard); err != nil {
		t.Fatal(err)
	}
	if got := obs.C(name).Value(); got != 20 {
		t.Errorf("counter after resume = %d, want 20 (every shard counted exactly once)", got)
	}
}

func TestRunCancellationLeavesCheckpointAtBarrier(t *testing.T) {
	cpPath := filepath.Join(t.TempDir(), "cp.json")
	ctx, cancel := context.WithCancel(context.Background())
	shard := func(_ context.Context, info runner.Info) (json.RawMessage, error) {
		if info.Key == "demo/11" {
			cancel() // mid-round-2 cancellation
		}
		return json.Marshal(info.Seed)
	}
	spec := Spec{Seed: 9, Workers: 1, CheckpointPath: cpPath}
	_, err := Run(ctx, spec, demoKeys(20), shard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run = %v, want context.Canceled", err)
	}
	cp, lerr := LoadCheckpoint(cpPath)
	if lerr != nil {
		t.Fatal(lerr)
	}
	if cp.Rounds < 1 {
		t.Errorf("checkpoint rounds = %d, want at least the first barrier", cp.Rounds)
	}
	// Every banked shard must be from a committed round — multiples of
	// the round size until the key list runs out.
	if n := len(cp.Completed) + len(cp.Quarantined); n%roundSize != 0 {
		t.Errorf("checkpoint holds %d shards, not a whole number of rounds", n)
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := Run(context.Background(), Spec{Workers: -1}, []string{"a"}, seedEcho); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := Run(context.Background(), Spec{}, []string{"a"}, nil); err == nil {
		t.Error("nil shard function accepted")
	}
}

func TestShardRecordSeedVerifiedOnResume(t *testing.T) {
	cpPath := filepath.Join(t.TempDir(), "cp.json")
	keys := demoKeys(2)
	spec := Spec{Seed: 9, CheckpointPath: cpPath,
		OnBarrier: func(cp *Checkpoint, round int) error { return errKill }}
	if _, err := Run(context.Background(), spec, keys, seedEcho); !errors.Is(err, errKill) {
		t.Fatal(err)
	}
	// Corrupt a recorded shard seed in a CRC-consistent way (an editor,
	// not bit rot) — resume must still catch it via re-derivation.
	cp, err := LoadCheckpoint(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	rec := cp.Completed["demo/0"]
	rec.Seed++
	cp.Completed["demo/0"] = rec
	if err := SaveCheckpoint(cpPath, cp); err != nil {
		t.Fatal(err)
	}
	spec.OnBarrier = nil
	_, err = Run(context.Background(), spec, keys, seedEcho)
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("resume with drifted shard seed = %v, want ErrCheckpointMismatch", err)
	}
	if err != nil && !errors.Is(err, ErrCheckpointMismatch) {
		t.Error(fmt.Errorf("unexpected error class: %w", err))
	}
}
