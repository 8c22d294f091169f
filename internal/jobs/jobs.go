// Package jobs is the supervised job engine: it turns a long sharded
// experiment into a crash-safe Job that survives SIGKILL, OOM, and
// persistent shard failures, on top of internal/runner's deterministic
// worker pool.
//
// A Job executes its shards in rounds of eight. Within a round, shards
// run on the runner pool; a shard that fails or panics is quarantined
// on its first failure — one pathological configuration degrades the
// result instead of wedging the campaign. A shard is never retried: it
// is a pure function of its ShardSeed, so a second attempt fails with
// the same error after the same work. At the end of each round the
// engine reaches a *barrier*: no shard is in flight, every shard of the
// round is either completed or quarantined. Only at a barrier does it
// write the checkpoint (atomic temp+rename, CRC32-protected,
// schema-versioned), recording completed shard IDs, their
// ShardSeed-keyed results, the quarantine set, and the obs counter
// totals.
//
// Counters are banked at barriers — and only at barriers — because
// shards run concurrently: mid-round, the global registry holds
// partial contributions from in-flight shards, so no per-shard counter
// delta can be attributed cleanly. At a barrier the registry is a
// clean prefix sum of per-shard contributions, each of which is a pure
// function of its ShardSeed. A killed process loses at most one
// round's work; its partial counter increments die with it. Resume
// verifies the checkpoint's identity (kind, seed, board, fault
// profile, config, shard keys — and each record's ShardSeed), seeds
// the fresh registry with the banked counters, and re-runs only the
// missing shards. The final counter totals, results, and canonical
// ledger manifest of a killed-and-resumed run are therefore
// byte-identical to an uninterrupted one — the property test in this
// package holds that across workers 1, 4, and 16 with kills at random
// barriers, and scripts/chaos_resume.sh holds it against a real
// kill -9.
//
// The counter-banking guarantee is per-process: banked counters include
// whatever else the process was doing, so the byte-identical-manifest
// property holds for one job per process, which is how the CLI runs
// `characterize -checkpoint` and `resume`. Characterize is the one
// experiment the engine runs; Run itself is generic over shard keys.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"

	"repro/internal/obs"
	"repro/internal/runner"
)

// Supervision metrics. Everything here is either deterministic per
// shard (and thus banked/restored exactly across resume) or happens a
// fixed number of times per barrier, which the banking order keeps
// resume-invariant.
var (
	cRounds      = obs.C("jobs.rounds")
	cCheckpoints = obs.C("jobs.checkpoint_writes")
	cQuarantined = obs.C("jobs.shards_quarantined")
)

// roundSize is how many shards run between checkpoint barriers. It
// bounds the work a crash can lose; it must not depend on the worker
// count, because jobs.rounds is banked into the manifest.
const roundSize = 8

// Spec parameterizes a supervised job. Its kind is always
// CharacterizeKind and its board "zcu102"; the checkpoint records and
// verifies both.
type Spec struct {
	// RunID identifies this run in checkpoints and ledger lineage (the
	// CLI's per-process run ID). Optional.
	RunID string
	// Seed is the campaign root seed; shard seeds derive from it and
	// the shard key exactly as in a plain runner campaign.
	Seed int64
	// FaultProfile and FaultIntensity describe the injected faults;
	// they are checkpoint identity fields. An empty profile means none.
	FaultProfile   string
	FaultIntensity float64
	// Config is the kind-specific configuration, stored verbatim in
	// the checkpoint and byte-compared on resume.
	Config json.RawMessage
	// Workers is the runner pool size; zero means GOMAXPROCS.
	Workers int
	// CheckpointPath is where the job checkpoints; empty disables
	// checkpointing (the job still supervises and quarantines).
	CheckpointPath string
	// OnBarrier, when set, runs after each committed round barrier with
	// the freshly saved checkpoint. Returning an error aborts the job
	// as if the process had crashed at the barrier — the chaos tests
	// use it to kill a run at a precise shard boundary.
	OnBarrier func(cp *Checkpoint, round int) error
}

// Outcome is a supervised job's result set.
type Outcome struct {
	// Keys is the full shard key list in submission order.
	Keys []string
	// Results maps completed shard keys to their JSON results
	// (including shards resumed from the checkpoint).
	Results map[string]json.RawMessage
	// Quarantined maps failed shard keys to their final error.
	Quarantined map[string]string
	// ResumedShards is how many shards were skipped because a valid
	// checkpoint already recorded them.
	ResumedShards int
	// ParentRunID is the run ID recorded in the checkpoint this run
	// resumed from; empty for a fresh run.
	ParentRunID string
	// Rounds is the number of committed round barriers.
	Rounds int
}

// Completed reports how many shards have results.
func (o *Outcome) Completed() int { return len(o.Results) }

// Run executes the shards under supervision and returns the outcome.
// runShard is invoked exactly as by runner.Run — its Info.Seed is
// ShardSeed(spec.Seed, key) — and must return a canonical JSON
// encoding of the shard's result (byte-stable for a given seed, since
// resumed runs replay these bytes instead of the computation).
//
// On context cancellation Run stops at the next shard completion
// without committing the in-flight round, returns the partial outcome
// and ctx's error; the checkpoint on disk stays at the last barrier,
// from which a later Run resumes.
func Run(ctx context.Context, spec Spec, keys []string, runShard func(context.Context, runner.Info) (json.RawMessage, error)) (*Outcome, error) {
	if spec.Workers < 0 {
		return nil, fmt.Errorf("jobs: negative workers %d", spec.Workers)
	}
	if runShard == nil {
		return nil, errors.New("jobs: nil shard function")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cp, resumed, parent, err := openCheckpoint(spec, keys)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Keys:          keys,
		Results:       make(map[string]json.RawMessage, len(keys)),
		Quarantined:   make(map[string]string),
		ResumedShards: resumed,
		ParentRunID:   parent,
	}

	// Pending = keys not yet completed or quarantined, in order.
	var pending []string
	for _, k := range keys {
		if _, done := cp.Completed[k]; done {
			continue
		}
		if _, bad := cp.Quarantined[k]; bad {
			continue
		}
		pending = append(pending, k)
	}

	for len(pending) > 0 {
		if err := ctx.Err(); err != nil {
			return finishOutcome(out, cp), err
		}
		n := roundSize
		if n > len(pending) {
			n = len(pending)
		}
		round, rest := pending[:n], pending[n:]
		if err := runRound(ctx, spec, cp, round, runShard); err != nil {
			return finishOutcome(out, cp), err
		}
		pending = rest

		// Barrier: the round is fully resolved and no shard is in
		// flight. Bank the counter totals (incrementing the per-barrier
		// bookkeeping first, so the banked totals include it and stay
		// resume-invariant) and commit the checkpoint atomically.
		cRounds.Inc()
		cp.Rounds++
		if spec.CheckpointPath != "" {
			cCheckpoints.Inc()
			cp.Counters = obs.Default.Snapshot().Counters
			if err := SaveCheckpoint(spec.CheckpointPath, cp); err != nil {
				return finishOutcome(out, cp), err
			}
		}
		if spec.OnBarrier != nil {
			if err := spec.OnBarrier(cp, cp.Rounds); err != nil {
				return finishOutcome(out, cp), err
			}
		}
	}

	return finishOutcome(out, cp), nil
}

// openCheckpoint loads and verifies an existing checkpoint or creates
// a fresh one. On resume it seeds the obs registry with the banked
// counter totals and rewrites the lineage: the checkpoint's previous
// run becomes this run's parent.
func openCheckpoint(spec Spec, keys []string) (cp *Checkpoint, resumed int, parent string, err error) {
	if spec.CheckpointPath != "" {
		loaded, lerr := LoadCheckpoint(spec.CheckpointPath)
		switch {
		case lerr == nil:
			if err := loaded.matches(spec, keys); err != nil {
				return nil, 0, "", err
			}
			for _, k := range keys {
				rec, ok := loaded.Completed[k]
				if !ok {
					continue
				}
				if want := runner.ShardSeed(spec.Seed, k); rec.Seed != want {
					return nil, 0, "", fmt.Errorf("%w: shard %q recorded seed %d, derivation gives %d",
						ErrCheckpointMismatch, k, rec.Seed, want)
				}
			}
			for name, v := range loaded.Counters {
				obs.C(name).Add(v)
			}
			resumed = len(loaded.Completed) + len(loaded.Quarantined)
			parent = loaded.RunID
			loaded.ParentRunID = loaded.RunID
			loaded.RunID = spec.RunID
			return loaded, resumed, parent, nil
		case errors.Is(lerr, fs.ErrNotExist):
			// No checkpoint yet: fresh start. Any other load failure —
			// unreadable, corrupt, mismatched — is reported, never
			// silently overwritten.
		default:
			return nil, 0, "", lerr
		}
	}
	return NewCheckpoint(spec, keys), 0, "", nil
}

// runRound runs each of one round's shards once: every key ends up in
// cp.Completed or, on its first failure, in cp.Quarantined. It only
// returns early on context cancellation.
func runRound(ctx context.Context, spec Spec, cp *Checkpoint, round []string, runShard func(context.Context, runner.Info) (json.RawMessage, error)) error {
	shards := make([]runner.Shard[json.RawMessage], len(round))
	for i, k := range round {
		shards[i] = runner.Shard[json.RawMessage]{Key: k, Run: runShard}
	}
	results, err := runner.Run(ctx, runner.Config{
		Name:    CharacterizeKind,
		Seed:    spec.Seed,
		Workers: spec.Workers,
	}, shards)
	if err != nil {
		return err
	}
	for i := range results {
		r := &results[i]
		if r.Err != nil {
			cQuarantined.Inc()
			cp.Quarantined[r.Key] = r.Err.Error()
			continue
		}
		cp.Completed[r.Key] = ShardRecord{
			Seed: runner.ShardSeed(spec.Seed, r.Key),
			Data: r.Value,
		}
	}
	return nil
}

// finishOutcome copies the checkpoint's durable state into the
// outcome.
func finishOutcome(out *Outcome, cp *Checkpoint) *Outcome {
	for k, rec := range cp.Completed {
		out.Results[k] = rec.Data
	}
	for k, msg := range cp.Quarantined {
		out.Quarantined[k] = msg
	}
	out.Rounds = cp.Rounds
	return out
}
