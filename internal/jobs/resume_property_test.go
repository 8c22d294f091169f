package jobs_test

// The engine's headline property: a supervised run that is killed at a
// round barrier and resumed in a fresh process produces a canonical
// ledger manifest byte-identical to an uninterrupted run — across
// worker counts 1, 4, and 16 and across kill positions. This is the
// crash-safety twin of the ledger's workers-determinism test: if it
// breaks, either a counter escaped the barrier banking (counted twice
// or lost across the kill), a shard result stopped being a pure
// function of its ShardSeed, or a wall-clock quantity leaked into the
// manifest's measurement content.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/check"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
)

// chaosSpec is one small hostile-faults characterize campaign: 17
// levels in rounds of 8, so there are 3 barriers to die at.
func chaosSpec(workers int, cpPath string) jobs.Spec {
	return jobs.Spec{
		Seed:           7,
		FaultProfile:   "hostile",
		FaultIntensity: 1,
		Workers:        workers,
		Config:         json.RawMessage(`{"levels":17,"samples_per_level":4}`),
		CheckpointPath: cpPath,
	}
}

// runManifest executes the spec on a clean registry and returns the
// run's canonical manifest bytes. The registry is NOT reset afterwards
// so callers can chain a kill with a resume.
func runManifest(spec jobs.Spec) ([]byte, *jobs.Outcome, error) {
	out, _, err := jobs.Characterize(context.Background(), spec)
	if err != nil {
		return nil, out, err
	}
	m := ledger.New(ledger.RunInfo{
		Tool:           "amperebleed",
		Command:        jobs.CharacterizeKind,
		Board:          "zcu102",
		Seed:           spec.Seed,
		FaultProfile:   spec.FaultProfile,
		FaultIntensity: spec.FaultIntensity,
		Workers:        spec.Workers,
		RunID:          spec.RunID,
		ParentRunID:    out.ParentRunID,
		ResumedShards:  out.ResumedShards,
	}, obs.Default.Snapshot())
	got, jerr := ledger.CanonicalJSON(m)
	if jerr != nil {
		return nil, out, fmt.Errorf("canonicalize: %w", jerr)
	}
	return got, out, nil
}

var errChaosKill = errors.New("chaos: simulated crash at barrier")

func TestResumeManifestByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos property is not short")
	}
	tmp := t.TempDir()
	// The baseline checkpoints too (to its own file): checkpoint writes
	// are counted, so an uncheckpointed run is a *different* experiment
	// record than a checkpointed one.
	baseSpec := chaosSpec(1, filepath.Join(tmp, "cp-baseline.json"))

	// Uninterrupted baseline, once. Worker-count independence of the
	// baseline itself is the ledger package's determinism test; here the
	// killed-and-resumed manifests at every worker count are held
	// against this single reference.
	obs.Default.Reset()
	defer obs.Default.Reset()
	var want []byte
	{
		got, out, err := runManifest(baseSpec)
		if err != nil {
			t.Fatalf("baseline run: %v", err)
		}
		if out.Completed()+len(out.Quarantined) != len(out.Keys) {
			t.Fatalf("baseline resolved %d of %d shards", out.Completed()+len(out.Quarantined), len(out.Keys))
		}
		want = got
	}

	type chaosCase struct {
		Workers   int
		KillRound int
	}
	var caseID atomic.Int64
	gen := check.Gen[chaosCase]{
		Generate: func(r *rand.Rand, size int) chaosCase {
			workerChoices := []int{1, 4, 16}
			return chaosCase{
				Workers:   workerChoices[r.Intn(len(workerChoices))],
				KillRound: 1 + r.Intn(2), // die after barrier 1 or 2 of 3
			}
		},
	}
	check.Forall(t, gen, func(ct *check.T, c chaosCase) {
		cpPath := filepath.Join(tmp, fmt.Sprintf("cp-%d.json", caseID.Add(1)))
		spec := chaosSpec(c.Workers, cpPath)
		spec.RunID = "life-1"
		spec.OnBarrier = func(cp *jobs.Checkpoint, round int) error {
			if round >= c.KillRound {
				return errChaosKill
			}
			return nil
		}

		// First life: crash at the chosen barrier.
		obs.Default.Reset()
		if _, _, err := runManifest(spec); !errors.Is(err, errChaosKill) {
			ct.Fatalf("first life = %v, want the chaos kill", err)
		}

		// Process death wipes the registry; the resume must rebuild the
		// exact totals from the checkpoint bank plus the re-run tail.
		obs.Default.Reset()
		spec.RunID = "life-2"
		spec.OnBarrier = nil
		got, out, err := runManifest(spec)
		if err != nil {
			ct.Fatalf("resume: %v", err)
		}
		if out.ResumedShards == 0 {
			ct.Errorf("resume skipped no shards — the kill landed before any barrier?")
		}
		if out.ParentRunID != "life-1" {
			ct.Errorf("parent run = %q, want life-1", out.ParentRunID)
		}
		if string(got) != string(want) {
			ct.Errorf("killed@round%d/workers=%d manifest differs from uninterrupted run:\n got %s\nwant %s",
				c.KillRound, c.Workers, got, want)
		}
	}, check.Iters(6))
}
