package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/runner"
)

// Fault injection must not weaken the runner's determinism contract:
// with any profile active, the shard schedule still may not leak into
// the results. Every preset is pinned across worker counts — both the
// collected trace bytes and the exact number of faults of each kind
// that fired, since a single extra RNG draw on any code path would
// desync the whole stream.

func presetOrNil(t *testing.T, name string) *faults.Profile {
	t.Helper()
	p, err := faults.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Enabled() {
		return nil
	}
	return &p
}

func TestChaosTracesDeterministicAcrossWorkers(t *testing.T) {
	for _, preset := range faults.PresetNames() {
		pf := presetOrNil(t, preset)
		t.Run(preset, func(t *testing.T) {
			cfg := FingerprintConfig{
				Seed:           11,
				Models:         []string{"MobileNet-V1", "VGG-19"},
				TracesPerModel: 2,
				TraceDuration:  300 * time.Millisecond,
				Durations:      []time.Duration{300 * time.Millisecond},
				Folds:          2,
				Trees:          5,
				Channels:       []Channel{{Label: board.SensorFPGA, Kind: Current}},
				Faults:         pf,
			}
			var wantCaps []byte
			var wantFaults map[string]int64
			for _, workers := range workerCounts {
				cfg.Parallelism = workers
				before := obs.Default.Snapshot()
				caps, err := CollectDPUTraces(cfg)
				if err != nil {
					t.Fatalf("workers=%d: collect: %v", workers, err)
				}
				delta := faultCounterDelta(before, obs.Default.Snapshot())
				var buf bytes.Buffer
				if err := SaveCaptures(&buf, caps); err != nil {
					t.Fatalf("workers=%d: save: %v", workers, err)
				}
				if wantCaps == nil {
					wantCaps, wantFaults = buf.Bytes(), delta
					if pf != nil && len(delta) == 0 {
						t.Fatalf("profile %q active but no faults fired", preset)
					}
					continue
				}
				if !bytes.Equal(buf.Bytes(), wantCaps) {
					t.Errorf("workers=%d: captures differ from workers=%d baseline", workers, workerCounts[0])
				}
				if !reflect.DeepEqual(delta, wantFaults) {
					t.Errorf("workers=%d: fault counts %v differ from workers=%d baseline %v",
						workers, delta, workerCounts[0], wantFaults)
				}
			}
		})
	}
}

func TestChaosApplicabilityDeterministicAcrossWorkers(t *testing.T) {
	for _, preset := range faults.PresetNames() {
		pf := presetOrNil(t, preset)
		t.Run(preset, func(t *testing.T) {
			var want []byte
			var wantFaults map[string]int64
			for _, workers := range workerCounts {
				before := obs.Default.Snapshot()
				// SamplesPerLevel must exceed the hostile profile's worst
				// dropout burst (4 samples) or a level can lose every sample
				// and legitimately abort the survey.
				rows, err := Applicability(ApplicabilityConfig{
					Seed:            11,
					Levels:          3,
					SamplesPerLevel: 8,
					Parallelism:     workers,
					Faults:          pf,
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				delta := faultCounterDelta(before, obs.Default.Snapshot())
				got := mustJSON(t, rows)
				if want == nil {
					want, wantFaults = got, delta
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("workers=%d: rows differ from workers=%d baseline", workers, workerCounts[0])
				}
				if !reflect.DeepEqual(delta, wantFaults) {
					t.Errorf("workers=%d: fault counts %v differ from baseline %v", workers, delta, wantFaults)
				}
			}
		})
	}
}

func TestChaosCovertDeterministicAcrossWorkers(t *testing.T) {
	for _, preset := range faults.PresetNames() {
		pf := presetOrNil(t, preset)
		t.Run(preset, func(t *testing.T) {
			var want []byte
			for _, workers := range workerCounts {
				res, err := CovertTransmit(CovertConfig{
					Seed:          11,
					PayloadBits:   40, // chunks of 32 + 8
					SymbolUpdates: 1,
					Parallelism:   workers,
					Faults:        pf,
				})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got := mustJSON(t, res)
				if want == nil {
					want = got
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("workers=%d: covert result differs from workers=%d baseline", workers, workerCounts[0])
				}
			}
		})
	}
}

// TestFaultFreeProfileMatchesLegacyPipeline pins the acceptance
// criterion that -faults none is byte-identical to a build without the
// fault subsystem: a nil profile and the "none" preset must yield the
// same captures as the pre-faults collection path.
func TestFaultFreeProfileMatchesLegacyPipeline(t *testing.T) {
	cfg := FingerprintConfig{
		Seed:           5,
		Models:         []string{"MobileNet-V1"},
		TracesPerModel: 1,
		TraceDuration:  300 * time.Millisecond,
		Durations:      []time.Duration{300 * time.Millisecond},
		Folds:          1,
		Channels:       []Channel{{Label: board.SensorFPGA, Kind: Current}},
	}
	collect := func(pf *faults.Profile) []byte {
		c := cfg
		c.Faults = pf
		caps, err := CollectDPUTraces(c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveCaptures(&buf, caps); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	legacy := collect(nil)
	none := presetOrNil(t, "none")
	if none != nil {
		t.Fatalf(`preset "none" reports Enabled`)
	}
	zero := &faults.Profile{Name: "none"}
	if got := collect(zero); !bytes.Equal(got, legacy) {
		t.Error("explicit zero-rate profile changed the captured traces")
	}
}

// TestDeadLevelFailsIdentically pins why the job engine quarantines a
// characterize shard on its first failure instead of retrying it: a
// level is a pure function of its seed, so at a fault intensity that
// loses every current sample a second attempt fails with the same
// error after exactly the same work.
func TestDeadLevelFailsIdentically(t *testing.T) {
	p, err := faults.Resolve("hostile", 50)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CharacterizeConfig{Seed: 3, Levels: 4, SamplesPerLevel: 24, Faults: p}
	seed := runner.ShardSeed(cfg.Seed, CharacterizeLevelKey(0))
	attempt := func() (string, map[string]int64) {
		before := obs.Default.Snapshot().Counters
		_, err := CharacterizeLevel(cfg, seed, 0)
		if err == nil {
			t.Fatal("level 0 survived hostile faults at intensity 50")
		}
		delta := make(map[string]int64)
		for name, v := range obs.Default.Snapshot().Counters {
			if strings.Contains(name, "walltime") {
				continue // wall-clock, dropped from canonical manifests too
			}
			if d := v - before[name]; d != 0 {
				delta[name] = d
			}
		}
		return err.Error(), delta
	}
	err1, delta1 := attempt()
	err2, delta2 := attempt()
	if err1 != err2 {
		t.Errorf("second attempt failed with %q, first with %q", err2, err1)
	}
	if len(delta1) == 0 {
		t.Error("the failing level moved no counter")
	}
	if !reflect.DeepEqual(delta1, delta2) {
		t.Errorf("second attempt's counter delta %v differs from the first's %v", delta2, delta1)
	}
}

// TestSaturatedLevelPinsBreaker pins the breaker on a real capture: no
// golden trips it (the hostile goldens run at intensity 1), so this is
// the one check that its thresholds, probe windows and jitter stream
// still produce the same trips, sheds and probes, in the same order
// against the retry budget. One characterize level at hostile intensity
// 50 loses every current sample, and the level fails.
func TestSaturatedLevelPinsBreaker(t *testing.T) {
	p, err := faults.Resolve("hostile", 50)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CharacterizeConfig{Seed: 3, Levels: 4, SamplesPerLevel: 24, Faults: p}
	before := obs.Default.Snapshot().Counters
	_, err = CharacterizeLevel(cfg, runner.ShardSeed(cfg.Seed, CharacterizeLevelKey(0)), 0)
	if want := "core: level 0: every current sample lost"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	after := obs.Default.Snapshot().Counters
	want := map[string]int64{
		"core.sampler.samples":                   0,
		"core.sampler.retries":                   144,
		"core.sampler.gaps":                      72,
		"core.sampler.reresolves":                12,
		"core.sampler.backoff_ns":                250325975,
		"resilience.breaker.open_total":          2,
		"resilience.breaker.short_circuit_total": 16,
		"resilience.breaker.probes_total":        0,
		"resilience.breaker.close_total":         0,
	}
	for name, w := range want {
		// A breaker counter absent from both snapshots (lazily registered,
		// never hit in this process) moved by zero.
		if d := after[name] - before[name]; d != w {
			t.Errorf("%s moved by %d, want %d", name, d, w)
		}
	}
}
