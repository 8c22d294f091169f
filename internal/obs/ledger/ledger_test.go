package ledger

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func sampleManifest(seed int64, top1 float64) Manifest {
	r := obs.NewRegistry()
	r.Counter("sim.ticks").Add(1000)
	r.Counter("sim.simtime_ns").Add(2_000_000_000)
	r.Counter("sim.walltime_ns").Add(123456789)
	r.Counter("core.captures").Add(8)
	r.Gauge("fingerprint.top1_mean").Set(top1)
	r.Gauge("leakage.snr").Set(42.5)
	r.Histogram("attacker.sample_rate_hz").Observe(28.57)
	return New(RunInfo{
		Tool:    "amperebleed",
		Command: "fingerprint",
		Args:    []string{"-traces", "4"},
		Board:   "zcu102",
		Seed:    seed,
		Workers: 4,
		Started: time.Now(),
		Wall:    3 * time.Second,
	}, r.Snapshot())
}

func TestAppendRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	for i := 0; i < 3; i++ {
		if err := Append(path, sampleManifest(int64(i+1), 0.9)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	ms, err := Read(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(ms) != 3 {
		t.Fatalf("read %d manifests, want 3", len(ms))
	}
	m := ms[1]
	if m.Seed != 2 || m.Tool != "amperebleed" || m.Command != "fingerprint" {
		t.Fatalf("manifest fields wrong: %+v", m)
	}
	if m.SchemaVersion != SchemaVersion {
		t.Fatalf("schema version = %d", m.SchemaVersion)
	}
	if m.SimSeconds != 2 {
		t.Fatalf("sim seconds = %g, want 2", m.SimSeconds)
	}
	if m.Figures.Counters["core.captures"] != 8 {
		t.Fatalf("counters not captured: %+v", m.Figures.Counters)
	}
	if m.Figures.SampleRate.Count != 1 {
		t.Fatalf("sample-rate figure missing: %+v", m.Figures.SampleRate)
	}
	if m.Figures.LeakageSNR != 42.5 {
		t.Fatalf("leakage snr = %g", m.Figures.LeakageSNR)
	}
}

func TestReadRejectsCorruptLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	if err := Append(path, sampleManifest(1, 0.9)); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{not json\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Read(path); err == nil || !strings.Contains(err.Error(), ":2:") {
		t.Fatalf("corrupt line not reported with line number: %v", err)
	}
}

func TestFilterSelect(t *testing.T) {
	ms := []Manifest{
		sampleManifest(1, 0.9),
		sampleManifest(2, 0.9),
		sampleManifest(1, 0.8),
	}
	ms[2].Command = "characterize"
	if got := Select(ms, Filter{Seed: 1}); len(got) != 2 {
		t.Fatalf("seed filter matched %d, want 2", len(got))
	}
	if got := Select(ms, Filter{Command: "fingerprint", Seed: 1}); len(got) != 1 {
		t.Fatalf("command+seed filter matched %d, want 1", len(got))
	}
	if got := Select(ms, Filter{Board: "kv260"}); len(got) != 0 {
		t.Fatalf("board filter matched %d, want 0", len(got))
	}
}

func TestCanonicalizeStripsWallClock(t *testing.T) {
	a := sampleManifest(1, 0.9)
	b := sampleManifest(1, 0.9)
	// Same run content, different schedule and wall clock.
	b.Workers = 16
	b.StartedAt = b.StartedAt.Add(time.Hour)
	b.WallSeconds *= 7
	b.GoVersion = "go9.99"
	b.Args = []string{"-parallel", "16"}
	b.Figures.Counters["sim.walltime_ns"] = 999
	b.Experiments = []Experiment{{Name: "fingerprint", WallS: 2.5,
		Spans: map[string]SpanTime{"core.capture": {Count: 8, WallS: 1.5}}}}

	ja, err := CanonicalJSON(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := CanonicalJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("canonical manifests differ:\n%s\n%s", ja, jb)
	}
	if strings.Contains(string(ja), "walltime") {
		t.Fatal("canonical manifest still carries a walltime counter")
	}
	if strings.Contains(string(jb), `"experiments"`) {
		t.Fatal("canonical manifest still carries the experiments block")
	}
}

// TestExperimentFromDeltas runs two synthetic experiments on a private
// registry: each entry holds only the spans completed between its own
// snapshots, with their exact counts and summed wall time.
func TestExperimentFromDeltas(t *testing.T) {
	r := obs.NewRegistry()
	r.Histogram("span.core.capture.wall_ns").Observe(4e9) // before either experiment

	s0 := r.Snapshot()
	r.Histogram("span.runner.collect.wall_ns").Observe(3e9)
	r.Histogram("span.core.capture.wall_ns").Observe(1e9)
	r.Histogram("span.core.capture.wall_ns").Observe(1.5e9)
	r.Histogram("span.core.capture.sim_ns").Observe(5e9)
	r.Histogram("attacker.sample_rate_hz").Observe(28.57)
	s1 := r.Snapshot()
	r.Histogram("span.core.capture.wall_ns").Observe(0.5e9)
	r.StartSpan("ml.fold_train", nil).End()
	s2 := r.Snapshot()

	first := ExperimentFrom("fig3", s0, s1)
	second := ExperimentFrom("table3", s1, s2)
	if first.Name != "fig3" || second.Name != "table3" {
		t.Fatalf("names %q, %q", first.Name, second.Name)
	}
	if want := s1.TakenAt.Sub(s0.TakenAt).Seconds(); first.WallS != want {
		t.Fatalf("first wall_s %g, want %g", first.WallS, want)
	}
	wantFirst := map[string]SpanTime{
		"runner.collect": {Count: 1, WallS: 3},
		"core.capture":   {Count: 2, WallS: 2.5},
	}
	if len(first.Spans) != len(wantFirst) {
		t.Fatalf("first spans %+v, want %+v", first.Spans, wantFirst)
	}
	for k, w := range wantFirst {
		if got := first.Spans[k]; got.Count != w.Count || math.Abs(got.WallS-w.WallS) > 1e-9 {
			t.Fatalf("first %s = %+v, want %+v", k, got, w)
		}
	}
	if len(second.Spans) != 2 {
		t.Fatalf("second spans %+v, want core.capture and ml.fold_train only", second.Spans)
	}
	if got := second.Spans["core.capture"]; got.Count != 1 || math.Abs(got.WallS-0.5) > 1e-9 {
		t.Fatalf("second core.capture = %+v, want the one 0.5 s span", got)
	}
	if got, ok := second.Spans["ml.fold_train"]; !ok || got.Count != 1 || got.WallS < 0 {
		t.Fatalf("second ml.fold_train = %+v ok=%v", got, ok)
	}
	if _, ok := second.Spans["runner.collect"]; ok {
		t.Fatal("second experiment holds the first one's runner.collect")
	}
}

func TestDiffFindsAccuracyMove(t *testing.T) {
	a := sampleManifest(1, 0.923)
	b := sampleManifest(1, 0.871)
	b.Workers = 16 // scheduling noise must not appear in the diff
	changes := Diff(a, b)
	if len(changes) != 1 {
		t.Fatalf("diff = %+v, want exactly the accuracy change", changes)
	}
	c := changes[0]
	if c.Field != "figures.fingerprint_top1" || c.A != "0.923" || c.B != "0.871" {
		t.Fatalf("unexpected change %+v", c)
	}
	if got := Diff(a, a); len(got) != 0 {
		t.Fatalf("self-diff = %+v, want empty", got)
	}
}

func TestDiffCounters(t *testing.T) {
	a := sampleManifest(1, 0.9)
	b := sampleManifest(1, 0.9)
	b.Figures.Counters["sim.ticks"] += 5
	delete(b.Figures.Counters, "core.captures")
	changes := Diff(a, b)
	var fields []string
	for _, c := range changes {
		fields = append(fields, c.Field)
	}
	want := []string{"counters.core.captures", "counters.sim.ticks"}
	if strings.Join(fields, ",") != strings.Join(want, ",") {
		t.Fatalf("diff fields = %v, want %v", fields, want)
	}
}

func TestRoundSig(t *testing.T) {
	// Values differing past the 9th significant digit collapse; values
	// differing within it stay apart.
	if roundSig(28.571428501) != roundSig(28.571428502) {
		t.Fatal("last-bit noise survived rounding")
	}
	if roundSig(28.5714285) == roundSig(28.5714286) {
		t.Fatal("meaningful difference lost to rounding")
	}
	for _, v := range []float64{0, -1.25e-9, 3.7e12} {
		if got := roundSig(v); got != v {
			t.Fatalf("roundSig(%g) = %g", v, got)
		}
	}
}
