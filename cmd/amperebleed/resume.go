package main

// The supervised side of the CLI: `characterize -checkpoint` runs the
// Fig. 2 sweep under the job engine, `resume` picks an interrupted run
// back up from its checkpoint file.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/jobs"
	"repro/internal/report"
)

// runCharacterizeJob runs a supervised characterize sweep, records its
// resume lineage for the ledger, reports quarantined levels on stderr
// under the command's name, in level order and even when too few
// levels survive to fit, and renders Fig. 2.
func runCharacterizeJob(ctx context.Context, command string, spec jobs.Spec) error {
	out, res, err := jobs.Characterize(ctx, spec)
	if out != nil {
		noteLineage(spec.RunID, out.ParentRunID, out.ResumedShards)
		for _, key := range out.Keys {
			if reason, ok := out.Quarantined[key]; ok {
				fmt.Fprintf(os.Stderr, "%s: shard %s quarantined: %s\n", command, key, reason)
			}
		}
	}
	if err != nil {
		return err
	}
	return report.RenderFig2(os.Stdout, res)
}

// cmdResume restarts a supervised run from its checkpoint file. The
// job's identity (kind, seed, board, fault profile, config) comes from
// the checkpoint itself; completed shards replay from the file and only
// the remainder executes, so the final result is byte-identical to an
// uninterrupted run.
func cmdResume(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("resume", flag.ExitOnError)
	workers := fs.Int("parallel", 0, "workers for the remaining shards (0 = GOMAXPROCS; results are identical for any worker count)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := (runFlags{Parallel: *workers}).validate(); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: amperebleed resume [-parallel N] <checkpoint-file>")
	}
	path := fs.Arg(0)
	cp, err := jobs.LoadCheckpoint(path)
	if err != nil {
		return err
	}
	if cp.Kind != jobs.CharacterizeKind {
		return fmt.Errorf("resume: %s is a %q checkpoint; only %q runs can be resumed",
			path, cp.Kind, jobs.CharacterizeKind)
	}
	spec := jobs.Spec{
		RunID:          fmt.Sprintf("resume-%d-%d", os.Getpid(), time.Now().Unix()),
		Seed:           cp.Seed,
		FaultProfile:   cp.FaultProfile,
		FaultIntensity: cp.FaultIntensity,
		Config:         cp.Config,
		Workers:        *workers,
		CheckpointPath: path,
	}
	noteRun(cp.Seed, poolSize(*workers))
	noteResumedSpec(cp.Kind, cp.FaultProfile, cp.FaultIntensity)
	done := len(cp.Completed) + len(cp.Quarantined)
	fmt.Fprintf(os.Stderr, "resume: %s run %s at %d/%d shards (%d quarantined)\n",
		cp.Kind, cp.RunID, done, len(cp.Keys), len(cp.Quarantined))
	return runCharacterizeJob(ctx, "resume", spec)
}
