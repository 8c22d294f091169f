package rsa

import (
	"math/big"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func ladderCfg(exp int64, verify bool) CircuitConfig {
	return CircuitConfig{
		Exponent:           big.NewInt(exp),
		Modulus:            big.NewInt(1000003),
		Bits:               16,
		ClockHz:            1e6,
		CyclesPerIteration: 10,
		Rand:               sim.NewRand(7),
		Verify:             verify,
		Ladder:             true,
	}
}

func TestLadderDatapathMatchesBigExp(t *testing.T) {
	for _, exp := range []int64{1, 11, 255, 0xABCD} {
		cfg := ladderCfg(exp, true)
		c, err := NewCircuit(cfg)
		if err != nil {
			t.Fatalf("NewCircuit: %v", err)
		}
		first := new(big.Int).Set(c.LastPlaintext())
		// 16 iterations * 10 cycles at 1 MHz = 160 us.
		for now := time.Duration(0); now < 200*time.Microsecond; now += 10 * time.Microsecond {
			c.Step(now, 10*time.Microsecond)
		}
		if c.LastResult() == nil {
			t.Fatalf("exp %d: no result", exp)
		}
		want := new(big.Int).Exp(first, big.NewInt(exp), cfg.Modulus)
		if c.LastResult().Cmp(want) != 0 {
			t.Fatalf("exp %d: ladder = %v, big.Exp = %v", exp, c.LastResult(), want)
		}
	}
}

func TestLadderActivityIsBitIndependent(t *testing.T) {
	// HW 1 and HW 16 keys must produce identical per-iteration activity.
	light, err := NewCircuit(ladderCfg(1, false))
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := NewCircuit(ladderCfg(0xFFFF, false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		light.Step(0, 10*time.Microsecond)
		heavy.Step(0, 10*time.Microsecond)
		if light.ActiveElements() != heavy.ActiveElements() {
			t.Fatalf("iteration %d: activity differs: %v vs %v",
				i, light.ActiveElements(), heavy.ActiveElements())
		}
	}
}

func TestLadderActivityConstantWithinExponentiation(t *testing.T) {
	c, err := NewCircuit(ladderCfg(0b0101, false))
	if err != nil {
		t.Fatal(err)
	}
	c.Step(0, 10*time.Microsecond)
	first := c.ActiveElements()
	for i := 0; i < 20; i++ {
		c.Step(0, 10*time.Microsecond)
		if c.ActiveElements() != first {
			t.Fatalf("ladder activity varied: %v -> %v", first, c.ActiveElements())
		}
	}
	want := DefaultControlElements + DefaultSquareElements + DefaultMultiplyElements
	// ladderCfg leaves the element defaults in place.
	if first != float64(want) {
		t.Fatalf("ladder activity = %v, want %d", first, want)
	}
}

// Property: ladder and square-and-multiply datapaths compute identical
// results for random small keys.
func TestLadderEquivalenceProperty(t *testing.T) {
	f := func(seed int64, e uint8) bool {
		exp := int64(e)%255 + 1
		mk := func(ladder bool) *Circuit {
			c, err := NewCircuit(CircuitConfig{
				Exponent: big.NewInt(exp), Modulus: big.NewInt(99991),
				Bits: 8, ClockHz: 1e6, CyclesPerIteration: 2,
				Rand:   sim.NewRand(seed),
				Verify: true, Ladder: ladder,
			})
			if err != nil {
				t.Fatal(err)
			}
			for now := time.Duration(0); now < 20*time.Microsecond; now += 2 * time.Microsecond {
				c.Step(now, 2*time.Microsecond)
			}
			return c
		}
		a, b := mk(true), mk(false)
		if a.LastResult() == nil || b.LastResult() == nil {
			return false
		}
		return a.LastResult().Cmp(b.LastResult()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
