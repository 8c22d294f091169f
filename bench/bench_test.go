package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ml/features"
)

// tinyWorkloads are the benchmark's workloads shrunk to test size.
func tinyWorkloads(t *testing.T) map[string]workload {
	t.Helper()
	hostile, err := faults.Preset("hostile")
	if err != nil {
		t.Fatal(err)
	}
	models := zooNames()[:4]
	return map[string]workload{
		"table3": table3{core.FingerprintConfig{
			Models: models, TracesPerModel: 10, TraceDuration: 500 * time.Millisecond,
			Warmup: 10 * time.Millisecond, Channels: core.SensitiveChannels()[3:5],
			Durations: []time.Duration{500 * time.Millisecond}, Folds: 10, Trees: 20, MaxDepth: 32,
			Bins: features.DefaultBins,
		}},
		"fig4": fig4{core.RSAConfig{
			Weights: []int{1, 512, 1024}, Samples: 1000,
			SampleInterval: time.Millisecond, Warmup: 10 * time.Millisecond,
		}},
		"fig2": fig2{core.CharacterizeConfig{Levels: 4, SamplesPerLevel: 5, WarmupUpdates: 3}},
		"collect-hostile": collectHostile{core.FingerprintConfig{
			Models: models[:2], TracesPerModel: 2, TraceDuration: time.Second,
			Warmup: 200 * time.Millisecond, Channels: core.SensitiveChannels(),
			Durations: []time.Duration{time.Second}, Folds: 2, Faults: &hostile,
		}},
	}
}

// The outside composition must reproduce core's result byte for byte,
// or the per-layer numbers describe some other computation.
func TestOutsideCompositionMatchesCore(t *testing.T) {
	for name, w := range tinyWorkloads(t) {
		t.Run(name, func(t *testing.T) {
			plain, err := w.run(1)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			lt := newLayers()
			traced, err := w.traced(1, lt)
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			if plain.digest != traced.digest {
				t.Errorf("traced report differs from core's\ncore:\n%s\ntraced:\n%s", plain.report, traced.report)
			}
			if len(lt.calls) == 0 {
				t.Error("traced run timed no layer")
			}
		})
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricCatalog(t *testing.T) {
	if len(endToEndMetrics) > 16 || len(perLayerMetrics) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(endToEndMetrics), len(perLayerMetrics))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("bad metric name %q", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %q listed twice", m.name)
		}
		seen[m.name] = true
	}
	for _, l := range append(append([]string(nil), topLevelLayers...), "unattributed") {
		if !seen[l+"_s"] {
			t.Errorf("layer %q has no %s_s metric", l, l)
		}
	}
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	s, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	var e2e, layer []metricDef
	for _, m := range s.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range s.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	sameDefs(t, "end_to_end", e2e, endToEndMetrics)
	sameDefs(t, "per_layer", layer, perLayerMetrics)
}

func sameDefs(t *testing.T, what string, got, want []metricDef) {
	t.Helper()
	index := map[string]string{}
	for _, m := range want {
		index[m.name] = m.unit
	}
	if len(got) != len(want) {
		t.Errorf("%s: BENCHMARK.json lists %d metrics, program emits %d", what, len(got), len(want))
	}
	for _, m := range got {
		if unit, ok := index[m.name]; !ok || unit != m.unit {
			t.Errorf("%s: BENCHMARK.json metric %s [%s] not emitted with that unit", what, m.name, m.unit)
		}
	}
}

// Both measurement modes print exactly the catalog as the last line.
func TestRunsEmitCatalog(t *testing.T) {
	w := tinyWorkloads(t)["fig4"]
	for _, tc := range []struct {
		mode    string
		measure func(workload, int64, time.Duration, *bytes.Buffer) (result, error)
		defs    []metricDef
	}{
		{"end-to-end", func(w workload, s int64, d time.Duration, b *bytes.Buffer) (result, error) {
			return measureEndToEnd(w, s, d, b)
		}, endToEndMetrics},
		{"layers", func(w workload, s int64, d time.Duration, b *bytes.Buffer) (result, error) {
			return measureLayers(w, s, d, b)
		}, perLayerMetrics},
	} {
		var out bytes.Buffer
		res, err := tc.measure(w, 1, time.Nanosecond, &out)
		if err != nil {
			t.Fatalf("%s: %v", tc.mode, err)
		}
		if !res.Correct || res.Attempted != 1 || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", tc.mode, res.Correct, res.Attempted, res.Failed, out.String())
		}
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var back map[string]json.RawMessage
		if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
			t.Fatalf("%s: result line %s", tc.mode, line)
		}
		for _, d := range tc.defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: metric %s missing or not in %s", tc.mode, d.name, d.unit)
			}
		}
		if !strings.Contains(out.String(), "digest ") {
			t.Errorf("%s: no digest line", tc.mode)
		}
	}
}

func record(workload, digest string, correct bool, wall float64) runRecord {
	return runRecord{
		file: workload, workload: workload, digest: digest,
		res: result{Correct: correct, Attempted: 1, Metrics: map[string]metric{"wall_s": {Value: wall, Unit: "s"}}},
	}
}

func TestAgree(t *testing.T) {
	bounds := []bound{{Name: "wall_s", Unit: "s", Bound: 0.1}}
	set := func(digest string, walls ...float64) []runRecord {
		var rs []runRecord
		for _, w := range walls {
			rs = append(rs, record("fig4", digest, true, w))
		}
		return rs
	}
	for _, tc := range []struct {
		name string
		a, b []runRecord
		want bool
	}{
		{"inside bound", set("d1", 1.00, 1.01, 1.02), set("d1", 1.05, 1.06, 1.04), true},
		{"over bound", set("d1", 1.00, 1.01, 1.02), set("d1", 1.20, 1.21, 1.19), false},
		{"digest mismatch", set("d1", 1.00, 1.01, 1.02), set("d2", 1.00, 1.01, 1.02), false},
		{"incorrect run", set("d1", 1.00, 1.01), append(set("d1", 1.00), record("fig4", "d1", false, 1.01)), false},
		{"spread too wide", set("d1", 0.8, 1.0, 1.2), set("d1", 0.8, 1.0, 1.2), false},
		{"workload in one set", set("d1", 1.0), append(set("d1", 1.0), record("fig2", "d3", true, 1.0)), false},
	} {
		var out bytes.Buffer
		if got := agree(tc.a, tc.b, bounds, &out); got != tc.want {
			t.Errorf("%s: agree = %v, want %v\n%s", tc.name, got, tc.want, out.String())
		}
	}
}

func TestParseRun(t *testing.T) {
	text := "workload fig4 seed 1 trace 0\ndigest abc\nmetric wall_s 1 s\n" +
		`{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}` + "\n"
	rec, err := parseRun("x.out", text)
	if err != nil {
		t.Fatal(err)
	}
	if rec.workload != "fig4" || rec.digest != "abc" || rec.res.Metrics["wall_s"].Value != 1.5 {
		t.Errorf("parsed %+v", rec)
	}
	if _, err := parseRun("y.out", "workload fig4\n{}\n"); err == nil {
		t.Error("run without digest accepted")
	}
}

// quartiles must match Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}
