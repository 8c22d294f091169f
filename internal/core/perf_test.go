package core

import (
	"testing"
	"time"
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
