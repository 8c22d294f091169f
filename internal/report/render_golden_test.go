package report

// Golden-output tests for the ledger and robustness render
// paths. The goldens live under testdata/ and are regenerated with
//
//	go test ./internal/report -run TestRender -update
//
// so a deliberate format change is a one-flag refresh while an
// accidental one (a dropped column, a broken empty-ledger branch) is a
// visible diff.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s output changed:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// manifestFixture builds a deterministic manifest without touching the
// global registry (StartedAt must be fixed: it is rendered).
func manifestFixture(cmd string, seed int64, workers int, faults string, intensity float64) ledger.Manifest {
	return ledger.Manifest{
		SchemaVersion:  ledger.SchemaVersion,
		Tool:           "amperebleed",
		Command:        cmd,
		Board:          "zcu102",
		Seed:           seed,
		FaultProfile:   faults,
		FaultIntensity: intensity,
		Workers:        workers,
		GoVersion:      "go1.22.0",
		StartedAt:      time.Date(2026, 8, 1, 12, 30, 0, 0, time.UTC),
		WallSeconds:    3.25,
		SimSeconds:     12.5,
		Figures: ledger.Figures{
			SampleRate:       obs.HistogramStat{Count: 480, Mean: 28.4, Min: 25.0, Max: 29.9, P50: 28.5, P95: 29.5, P99: 29.8},
			LeakageSNR:       14.25,
			LeakageT:         61.7,
			CovertBER:        0.0125,
			CovertBitsPerSec: 250,
			FingerprintTop1:  0.8919,
			FingerprintTop5:  0.9813,
			Counters:         map[string]int64{"sim.ticks": 25000, "sensor.samples": 480},
		},
	}
}

func TestRenderRunsEmptyLedger(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderRuns(&buf, nil); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "runs_empty.golden", buf.Bytes())
}

func TestRenderRunsSingleRun(t *testing.T) {
	var buf bytes.Buffer
	m := manifestFixture("characterize", 7, 4, "flaky-sysfs", 1)
	if err := RenderRuns(&buf, []ledger.Manifest{m}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "runs_single.golden", buf.Bytes())
}

func TestRenderRunsMultipleRuns(t *testing.T) {
	var buf bytes.Buffer
	a := manifestFixture("characterize", 7, 4, "flaky-sysfs", 1)
	b := manifestFixture("covert", 9, 0, "", 0)
	b.StartedAt = b.StartedAt.Add(time.Hour)
	// Scaled fault profile: the faults column must show the factor.
	c := manifestFixture("robustness", 7, 8, "hostile", 0.5)
	// A run with no figures: every quality column must blank to "-".
	d := manifestFixture("sensors", 1, 0, "", 0)
	d.Figures = ledger.Figures{Counters: map[string]int64{"sim.ticks": 200}}
	if err := RenderRuns(&buf, []ledger.Manifest{a, b, c, d}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "runs_multi.golden", buf.Bytes())
}

func TestRenderRunDiffIdentical(t *testing.T) {
	var buf bytes.Buffer
	a := manifestFixture("characterize", 7, 4, "flaky-sysfs", 1)
	b := a
	// Scheduling and wall-clock differences must NOT show up.
	b.Workers = 16
	b.WallSeconds = 99
	b.StartedAt = b.StartedAt.Add(48 * time.Hour)
	if err := RenderRunDiff(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "rundiff_identical.golden", buf.Bytes())
}

func TestRenderRunDiffChanged(t *testing.T) {
	var buf bytes.Buffer
	a := manifestFixture("characterize", 7, 4, "flaky-sysfs", 1)
	b := manifestFixture("characterize", 7, 4, "flaky-sysfs", 1)
	b.Figures.FingerprintTop1 = 0.75
	b.Figures.Counters["sensor.samples"] = 479
	if err := RenderRunDiff(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "rundiff_changed.golden", buf.Bytes())
}

func TestRenderRobustnessCurve(t *testing.T) {
	var buf bytes.Buffer
	res := &core.RobustnessResult{
		Profile: "hostile",
		Classes: 6,
		Points: []core.RobustnessPoint{
			{Intensity: 0, ApplicabilityPearson: 0.998, FingerprintTop1: 0.9, CovertBER: 0},
			{Intensity: 1, ApplicabilityPearson: 0.91, FingerprintTop1: 0.72, CovertBER: 0.04,
				InjectedFaults: map[string]int64{"sysfs_error": 120, "stale": 33},
				Retries:        57, Gaps: 12},
		},
	}
	if err := RenderRobustness(&buf, res); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "robustness_curve.golden", buf.Bytes())
}
