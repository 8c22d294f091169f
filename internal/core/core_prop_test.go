package core_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
)

// TestPropCovertZeroNoiseZeroBER: the end-to-end contract of the
// covert channel — encode → simulated board → decode recovers every
// payload bit when no faults are injected, for random seeds, payload
// sizes, and modulation parameters.
func TestPropCovertZeroNoiseZeroBER(t *testing.T) {
	type covertParams struct {
		seed        int64
		payloadBits int
		symbols     int
		groups      int
	}
	g := check.Gen[covertParams]{
		Generate: func(r *rand.Rand, _ int) covertParams {
			return covertParams{
				seed:        1 + r.Int63n(1_000_000),
				payloadBits: 1 + r.Intn(8),
				symbols:     2 + r.Intn(2),
				groups:      30 + r.Intn(51),
			}
		},
	}
	check.Forall(t, g, func(c *check.T, p covertParams) {
		res, err := core.CovertTransmit(core.CovertConfig{
			Seed:           p.seed,
			PayloadBits:    p.payloadBits,
			SymbolUpdates:  p.symbols,
			Groups:         p.groups,
			UpdateInterval: 2 * time.Millisecond,
		})
		if err != nil {
			c.Fatalf("CovertTransmit: %v", err)
		}
		if ber := res.BER(); ber != 0 {
			c.Errorf("BER = %v at zero noise (%d/%d bits wrong)", ber, res.BitErrors, res.BitsSent)
		}
	}, check.Iters(100))
}
