package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// TestResumeRejectsOtherKinds: a checkpoint of any kind but
// characterize (such as an applicability checkpoint written by an
// older build) fails with an error naming the kind and the file before
// a single shard runs.
func TestResumeRejectsOtherKinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "applicability.ckpt")
	cp := jobs.NewCheckpoint(jobs.Spec{Kind: "applicability", Seed: 1, Board: "all"},
		[]string{"applicability/ZCU102", "applicability/VCK190"})
	if err := jobs.SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	attempts := obs.C("jobs.shard_attempts").Value()
	err := cmdResume(context.Background(), []string{path})
	if err == nil {
		t.Fatal("resume of an applicability checkpoint succeeded")
	}
	for _, want := range []string{`"applicability"`, path} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if got := obs.C("jobs.shard_attempts").Value(); got != attempts {
		t.Errorf("%d shard attempts ran before the kind was rejected", got-attempts)
	}
}
