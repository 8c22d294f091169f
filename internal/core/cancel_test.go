package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/board"
)

// Cancellation must land inside a trace, not only between shards: the
// capture and covert loops are chunked at the sampling interval with
// the context polled between chunks.

// countdownCtx reports cancellation after its Err has been consulted n
// times — a deterministic stand-in for a deadline firing mid-capture.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	c.n--
	if c.n < 0 {
		return context.Canceled
	}
	return nil
}

func TestCaptureOneCancelsMidTrace(t *testing.T) {
	cfg := FingerprintConfig{
		Seed:           3,
		TraceDuration:  2 * time.Second,
		Channels:       []Channel{{Label: board.SensorFPGA, Kind: Current}},
		TracesPerModel: 1,
	}
	cfg.fillDefaults()

	// A 2 s capture at the 35 ms update interval polls ctx dozens of
	// times; cancelling on the 5th poll aborts well inside the trace.
	ctx := &countdownCtx{Context: context.Background(), n: 5}
	start := time.Now()
	_, err := captureOne(ctx, cfg, "MobileNet-V1", 0, captureSeed(cfg.Seed, "MobileNet-V1", 0))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Sanity: a full 2 s capture takes visibly longer than an abort on
	// the 5th chunk; this is a smoke bound, not a benchmark.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancelled capture still ran %v", elapsed)
	}

	// An uncancelled context completes the same capture.
	if _, err := captureOne(context.Background(), cfg, "MobileNet-V1", 0,
		captureSeed(cfg.Seed, "MobileNet-V1", 0)); err != nil {
		t.Fatalf("clean capture: %v", err)
	}
}

func TestCovertOnceCancelsMidTransmission(t *testing.T) {
	cfg := CovertConfig{Seed: 3, PayloadBits: 64, SymbolUpdates: 1, Groups: 40}
	ctx := &countdownCtx{Context: context.Background(), n: 5}
	if _, err := covertOnce(ctx, cfg, cfg.Seed, cfg.PayloadBits); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := covertOnce(context.Background(), cfg, cfg.Seed, cfg.PayloadBits); err != nil {
		t.Fatalf("clean transmission: %v", err)
	}
}
