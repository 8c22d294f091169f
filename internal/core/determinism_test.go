package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/board"
)

// The runner's contract is that shard decomposition and per-shard seeds
// are functions of the campaign config alone, so every experiment that
// routes through it must produce byte-identical results no matter how
// many workers execute the shards or in what order they finish. These
// regression tests pin that property across -parallel 0 (GOMAXPROCS),
// 1, 4, and 16 for each sharded experiment.

// workerCounts exercises the GOMAXPROCS default, fewer workers than
// shards, more workers than shards, and the serial degenerate case.
var workerCounts = []int{0, 1, 4, 16}

// mustJSON canonicalizes a result for byte-level comparison.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

func TestApplicabilityDeterministicAcrossWorkers(t *testing.T) {
	var want []byte
	for _, workers := range workerCounts {
		rows, err := Applicability(ApplicabilityConfig{
			Seed:            7,
			Levels:          3,
			SamplesPerLevel: 2,
			Parallelism:     workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := mustJSON(t, rows)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: applicability rows differ from workers=%d baseline", workers, workerCounts[0])
		}
	}
}

func TestCharacterizeDeterministicAcrossWorkers(t *testing.T) {
	var want []byte
	for _, workers := range workerCounts {
		res, err := Characterize(CharacterizeConfig{
			Seed:            7,
			Levels:          5,
			SamplesPerLevel: 3,
			Parallelism:     workers,
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
			t.Errorf("workers=%d: characterize result differs from workers=%d baseline", workers, workerCounts[0])
		}
	}
}

func TestCovertDeterministicAcrossWorkers(t *testing.T) {
	var want []byte
	for _, workers := range workerCounts {
		// 72 bits = chunks of 32 + 32 + 8: full and partial chunks.
		res, err := CovertTransmit(CovertConfig{
			Seed:          7,
			PayloadBits:   72,
			SymbolUpdates: 1,
			Parallelism:   workers,
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
}

func TestFingerprintDeterministicAcrossWorkers(t *testing.T) {
	cfg := FingerprintConfig{
		Seed:           7,
		Models:         []string{"MobileNet-V1", "VGG-19"},
		TracesPerModel: 2,
		TraceDuration:  500 * time.Millisecond,
		Durations:      []time.Duration{500 * time.Millisecond},
		Folds:          2,
		Trees:          10,
		Channels:       []Channel{{Label: board.SensorFPGA, Kind: Current}},
	}
	var wantCaps, wantRes []byte
	for _, workers := range workerCounts {
		cfg.Parallelism = workers
		caps, err := CollectDPUTraces(cfg)
		if err != nil {
			t.Fatalf("workers=%d: collect: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := SaveCaptures(&buf, caps); err != nil {
			t.Fatalf("workers=%d: save: %v", workers, err)
		}
		res, err := EvaluateCaptures(cfg, caps)
		if err != nil {
			t.Fatalf("workers=%d: evaluate: %v", workers, err)
		}
		gotRes := mustJSON(t, res.Cells)
		if wantCaps == nil {
			wantCaps, wantRes = buf.Bytes(), gotRes
			continue
		}
		if !bytes.Equal(buf.Bytes(), wantCaps) {
			t.Errorf("workers=%d: captures differ from workers=%d baseline", workers, workerCounts[0])
		}
		if !bytes.Equal(gotRes, wantRes) {
			t.Errorf("workers=%d: accuracy cells differ from workers=%d baseline", workers, workerCounts[0])
		}
	}
}

func TestRSAHammingWeightDeterministicAcrossWorkers(t *testing.T) {
	var want []byte
	for _, workers := range workerCounts {
		// The repeated weight is a shard of its own.
		res, err := RSAHammingWeight(RSAConfig{
			Seed:        7,
			Weights:     []int{512, 64, 512},
			Samples:     200,
			Parallelism: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Keys) != 3 {
			t.Fatalf("workers=%d: %d keys, want 3", workers, len(res.Keys))
		}
		got := mustJSON(t, res)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: rsa result differs from workers=%d baseline", workers, workerCounts[0])
		}
	}
}

// TestCovertChunkLayoutIndependentOfWorkers pins that the covert
// protocol's chunk layout, a trailing partial chunk included, depends on
// the payload alone and not on the worker schedule: same config,
// different worker counts, same BER.
func TestCovertChunkLayoutIndependentOfWorkers(t *testing.T) {
	base, err := CovertTransmit(CovertConfig{Seed: 3, PayloadBits: 40, SymbolUpdates: 1, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	again, err := CovertTransmit(CovertConfig{Seed: 3, PayloadBits: 40, SymbolUpdates: 1, Parallelism: 16})
	if err != nil {
		t.Fatal(err)
	}
	if base.BitsSent != again.BitsSent || base.BitErrors != again.BitErrors {
		t.Errorf("chunked covert result changed with workers: %+v vs %+v", base, again)
	}
	if base.BitsSent != 40 {
		t.Errorf("BitsSent = %d, want 40", base.BitsSent)
	}
}
