package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// TestResumeRejectsOtherKinds: a checkpoint of any kind but
// characterize (such as an applicability checkpoint written by an
// older build) fails with an error naming the kind and the file before
// a single shard runs.
func TestResumeRejectsOtherKinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "applicability.ckpt")
	cp := jobs.NewCheckpoint(jobs.Spec{Seed: 1},
		[]string{"applicability/ZCU102", "applicability/VCK190"})
	cp.Kind, cp.Board = "applicability", "all"
	if err := jobs.SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	shards := obs.C("runner.shards").Value()
	err := cmdResume(context.Background(), []string{path})
	if err == nil {
		t.Fatal("resume of an applicability checkpoint succeeded")
	}
	for _, want := range []string{`"applicability"`, path} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if got := obs.C("runner.shards").Value(); got != shards {
		t.Errorf("%d shards ran before the kind was rejected", got-shards)
	}
}

// TestQuarantineReportInLevelOrder: a supervised sweep whose every level
// dies (hostile faults at intensity 50 lose every current sample) lists
// each quarantined level on stderr, in level order, before the fit
// error that ends the run.
func TestQuarantineReportInLevelOrder(t *testing.T) {
	cmd := childCommand("-faults", "hostile", "-fault-intensity", "50",
		"characterize", "-seed", "3", "-levels", "4", "-samples", "24",
		"-checkpoint", filepath.Join(t.TempDir(), "shed.ckpt"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatal("a sweep with every level quarantined succeeded")
	}
	var want []string
	for level := 0; level < 4; level++ {
		want = append(want, fmt.Sprintf("characterize: shard %s quarantined: core: level %d: every current sample lost",
			core.CharacterizeLevelKey(level), level))
	}
	want = append(want, "amperebleed: core: only 0 level readings survived, need at least 2 to fit")
	if got := strings.Split(strings.TrimRight(stderr.String(), "\n"), "\n"); !reflect.DeepEqual(got, want) {
		t.Errorf("stderr:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
