package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/ml/crossval"
	"repro/internal/ml/features"
	"repro/internal/ml/rforest"
	"repro/internal/runner"
)

// BenchmarkCaptureSetup measures one capture's rig set-up — the board,
// the victim DPU with its zoo model, and six reserved recorders, each
// resolved through discovery — which every Table III capture pays
// before simulated time first advances. Iterations cycle through the
// whole zoo, as the campaign does.
func BenchmarkCaptureSetup(b *testing.B) {
	cfg := FingerprintConfig{TraceDuration: time.Second}
	cfg.fillDefaults()
	models := cfg.Models
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := captureRig(cfg, models[i%len(models)], int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharacterizeLevel measures one Fig. 2 level as bench's fig2
// workload runs it: a freshly wired board with the power virus and the
// RO bank, three warm-up updates, then 250 hwmon updates on three
// channels with one RO sample each. Iterations cycle through the 161
// activation levels with their shard seeds, as the sweep does.
func BenchmarkCharacterizeLevel(b *testing.B) {
	cfg := CharacterizeConfig{Levels: DefaultCharacterizeLevels, SamplesPerLevel: 250, WarmupUpdates: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		level := i % DefaultCharacterizeLevels
		if _, err := CharacterizeLevel(cfg, runner.ShardSeed(1, CharacterizeLevelKey(level)), level); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFingerprintCell times the classifier work of one Table III
// cell on real folds: 10-fold cross-validated 10-tree forests over the
// FPGA current channel's features of 39 models x 10 one-second
// captures, the traffic of bench's table3 workload. The captures and
// feature vectors are built once, outside the timer.
func BenchmarkFingerprintCell(b *testing.B) {
	cfg := FingerprintConfig{TracesPerModel: 10, TraceDuration: time.Second,
		Durations: []time.Duration{time.Second}, Trees: 10}
	cfg.fillDefaults()
	captures, err := CollectDPUTraces(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ch := Channel{Label: board.SensorFPGA, Kind: Current}
	var ds features.Dataset
	for _, c := range captures {
		vec, err := features.FromTraceWithSpectrum(c.Traces[ch], cfg.Bins, cfg.SpectralBins)
		if err != nil {
			b.Fatal(err)
		}
		ds.Add(vec, c.Model)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		forest := rforest.Config{Trees: cfg.Trees, MaxDepth: cfg.MaxDepth, Rand: rng}
		if _, err := crossval.Evaluate(&ds, forest, cfg.Folds, rng); err != nil {
			b.Fatal(err)
		}
	}
}
