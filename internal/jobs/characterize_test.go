package jobs_test

// The supervised sweep's contract: it computes exactly what the direct
// path computes — same shard keys, same derived seeds, same numbers
// after the JSON round-trip through the checkpoint format.

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/jobs"
)

func TestCharacterizeMatchesDirectPath(t *testing.T) {
	spec := jobs.Spec{
		Seed:    11,
		Workers: 2,
		Config:  json.RawMessage(`{"levels":5,"samples_per_level":4}`),
	}
	out, got, err := jobs.Characterize(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Quarantined) != 0 {
		t.Fatalf("unexpected quarantines: %v", out.Quarantined)
	}

	want, err := core.Characterize(core.CharacterizeConfig{
		Seed:            11,
		Levels:          5,
		SamplesPerLevel: 4,
		Parallelism:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("supervised characterize differs from direct path:\n got %+v\nwant %+v", got, want)
	}
}

func TestCharacterizeRejectsBadConfig(t *testing.T) {
	for name, spec := range map[string]jobs.Spec{
		"truncated config":      {Config: json.RawMessage(`{"levels":`)},
		"unknown fault profile": {FaultProfile: "no-such-profile"},
		"single-level sweep":    {Config: json.RawMessage(`{"levels":1}`)},
	} {
		if out, _, err := jobs.Characterize(context.Background(), spec); err == nil || out != nil {
			t.Errorf("%s: accepted (outcome %v, err %v)", name, out, err)
		}
	}
}
