package rsa

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// Default circuit parameters.
const (
	// DefaultClockHz is the paper's 100 MHz victim clock (Zhao & Suh's
	// original circuit ran at 20 MHz; the paper speeds it up 5×).
	DefaultClockHz = 100e6
	// DefaultCyclesPerIteration is the latency of one state-machine
	// iteration; both multiplier modules are synchronized to finish a
	// 1024-bit modular multiplication in this many fabric cycles.
	DefaultCyclesPerIteration = 1056
	// DefaultSquareElements is the toggling-element count of the
	// always-active square module.
	DefaultSquareElements = 12000
	// DefaultMultiplyElements is the toggling-element count of the
	// multiply module, active only on 1-bits. The value is the board
	// calibration point of Fig. 4: it spaces adjacent Hamming-weight
	// classes ~10 mA apart on the FPGA current channel (≫ its 1 mA LSB,
	// so all 17 classes separate) while the same spacing is only ~9.4 mW
	// (a third of the 25 mW power LSB, so the power channel collapses
	// the classes into a handful of groups — the paper observes 5).
	DefaultMultiplyElements = 4400
	// DefaultControlElements is the state machine's own activity.
	DefaultControlElements = 500
)

// CircuitConfig describes an RSA exponentiation circuit.
type CircuitConfig struct {
	// Exponent is the secret key, embedded in the bitstream. Required,
	// >= 1.
	Exponent *big.Int
	// Modulus is the public modulus. Required, odd, > 1.
	Modulus *big.Int
	// Bits is the state-machine width: the number of exponent bit
	// iterations per exponentiation (1024 for RSA-1024). The iteration
	// count is fixed by the register width, not by the key's top bit —
	// which is why the leak is the Hamming weight, not the bit length.
	// Zero means 1024.
	Bits int
	// ClockHz is the circuit clock; zero means DefaultClockHz.
	ClockHz float64
	// CyclesPerIteration is the per-iteration latency; zero means
	// DefaultCyclesPerIteration.
	CyclesPerIteration int
	// SquareElements, MultiplyElements, ControlElements override the
	// activity model; zero means the defaults.
	SquareElements   float64
	MultiplyElements float64
	ControlElements  float64
	// Ladder switches the state machine to a Montgomery ladder: one
	// multiplication and one squaring per iteration regardless of the
	// exponent bit. This is the constant-activity countermeasure; with
	// it enabled the circuit's mean current no longer depends on the
	// key's Hamming weight (see ladder.go).
	Ladder bool
	// Rand draws the random plaintexts the victim encrypts, typically
	// a named engine stream. Required.
	Rand *sim.Rand
	// Verify enables the real modular arithmetic alongside the activity
	// model, so the simulated datapath provably computes
	// plaintext^exponent mod modulus. It slows simulation roughly 100×;
	// leave it off for long side-channel runs.
	Verify bool
}

// Circuit is the deployed RSA engine. It implements fabric.Circuit.
type Circuit struct {
	cfg CircuitConfig

	// static per-key facts
	bits         []bool // exponent bits, LSB first, padded to cfg.Bits
	weight       int
	secsPerCycle float64

	// state machine
	iter        int     // current iteration (exponent bit index)
	cycleInIter int     // cycles consumed within the iteration
	activity    float64 // mean active elements over the last tick

	// real datapath (Verify mode)
	bigRand *rand.Rand // cfg.Rand wrapped for big.Int.Rand
	plain   *big.Int
	acc     *big.Int // running result
	square  *big.Int // running base square chain
	last    *big.Int // result of the last completed exponentiation

	exponentiations uint64
}

// NewCircuit validates cfg and returns a circuit ready to deploy.
func NewCircuit(cfg CircuitConfig) (*Circuit, error) {
	if cfg.Exponent == nil || cfg.Exponent.Sign() < 1 {
		return nil, errors.New("rsa: exponent must be >= 1 (the circuit does not support 0)")
	}
	if cfg.Modulus == nil || cfg.Modulus.Cmp(big.NewInt(2)) <= 0 || cfg.Modulus.Bit(0) == 0 {
		return nil, errors.New("rsa: modulus must be odd and > 2")
	}
	if cfg.Rand == nil {
		return nil, errors.New("rsa: nil random stream")
	}
	if cfg.Bits == 0 {
		cfg.Bits = 1024
	}
	if cfg.Bits < cfg.Exponent.BitLen() {
		return nil, fmt.Errorf("rsa: exponent has %d bits, machine width is %d",
			cfg.Exponent.BitLen(), cfg.Bits)
	}
	if cfg.ClockHz == 0 {
		cfg.ClockHz = DefaultClockHz
	}
	if cfg.ClockHz <= 0 {
		return nil, errors.New("rsa: non-positive clock")
	}
	if cfg.CyclesPerIteration == 0 {
		cfg.CyclesPerIteration = DefaultCyclesPerIteration
	}
	if cfg.CyclesPerIteration < 1 {
		return nil, errors.New("rsa: non-positive iteration latency")
	}
	if cfg.SquareElements == 0 {
		cfg.SquareElements = DefaultSquareElements
	}
	if cfg.MultiplyElements == 0 {
		cfg.MultiplyElements = DefaultMultiplyElements
	}
	if cfg.ControlElements == 0 {
		cfg.ControlElements = DefaultControlElements
	}
	if cfg.SquareElements < 0 || cfg.MultiplyElements < 0 || cfg.ControlElements < 0 {
		return nil, errors.New("rsa: negative activity model")
	}

	c := &Circuit{cfg: cfg, secsPerCycle: 1 / cfg.ClockHz}
	if cfg.Verify {
		c.bigRand = rand.New(cfg.Rand)
	}
	c.bits = make([]bool, cfg.Bits)
	for i := 0; i < cfg.Bits; i++ {
		c.bits[i] = cfg.Exponent.Bit(i) == 1
	}
	c.weight = HammingWeight(cfg.Exponent)
	c.startExponentiation()
	return c, nil
}

// startExponentiation draws a fresh plaintext and resets the machine.
func (c *Circuit) startExponentiation() {
	c.iter = 0
	c.cycleInIter = 0
	if c.cfg.Verify {
		c.plain = new(big.Int).Rand(c.bigRand, c.cfg.Modulus)
		if c.plain.Sign() == 0 {
			c.plain.SetInt64(1)
		}
		c.acc = big.NewInt(1)
		c.square = new(big.Int).Set(c.plain)
	} else {
		// Activity-only mode still consumes one rand draw per message so
		// traces line up bit-for-bit with Verify mode.
		_ = c.cfg.Rand.Int63()
	}
}

// finishIteration advances the datapath by one square-and-multiply (or
// ladder) step.
func (c *Circuit) finishIteration() {
	if c.cfg.Verify {
		if c.cfg.Ladder {
			c.ladderStep()
		} else {
			if c.bits[c.iter] {
				c.acc.Mul(c.acc, c.square)
				c.acc.Mod(c.acc, c.cfg.Modulus)
			}
			c.square.Mul(c.square, c.square)
			c.square.Mod(c.square, c.cfg.Modulus)
		}
	}
	c.iter++
	c.cycleInIter = 0
	if c.iter == c.cfg.Bits {
		if c.cfg.Verify {
			c.last = c.ladderResult() // accumulator (R0) in both modes
		}
		c.exponentiations++
		c.startExponentiation()
	}
}

// iterationElements returns the active element count while iteration i
// executes: control + square always, multiply only on a 1-bit — unless
// the Montgomery ladder is enabled, in which case both modules run on
// every iteration and the count is bit-independent.
func (c *Circuit) iterationElements(i int) float64 {
	e := c.cfg.ControlElements + c.cfg.SquareElements
	if c.cfg.Ladder || c.bits[i] {
		e += c.cfg.MultiplyElements
	}
	return e
}

// CircuitName implements fabric.Circuit.
func (c *Circuit) CircuitName() string { return "rsa1024" }

// Utilization implements fabric.Circuit: two 1024-bit multipliers and a
// control machine, sized to a realistic fraction of the ZU9EG.
func (c *Circuit) Utilization() fabric.Resources {
	return fabric.Resources{LUTs: 30000, FFs: 42000, DSPs: 256}
}

// Step implements fabric.Circuit: consume dt worth of 100 MHz cycles,
// walking the state machine through as many iterations as fit and
// averaging the active-element count over the tick.
func (c *Circuit) Step(now, dt time.Duration) {
	cycles := int(dt.Seconds() * c.cfg.ClockHz)
	if cycles <= 0 {
		cycles = 1
	}
	remaining := cycles
	var elementCycles float64
	for remaining > 0 {
		left := c.cfg.CyclesPerIteration - c.cycleInIter
		use := left
		if use > remaining {
			use = remaining
		}
		elementCycles += c.iterationElements(c.iter) * float64(use)
		c.cycleInIter += use
		remaining -= use
		if c.cycleInIter == c.cfg.CyclesPerIteration {
			c.finishIteration()
		}
	}
	c.activity = elementCycles / float64(cycles)
}

// ActiveElements implements fabric.Circuit.
func (c *Circuit) ActiveElements() float64 { return c.activity }

// Weight returns the secret exponent's Hamming weight (ground truth for
// the experiments; a real attacker does not have this).
func (c *Circuit) Weight() int { return c.weight }

// Exponentiations returns how many full exponentiations have completed.
func (c *Circuit) Exponentiations() uint64 { return c.exponentiations }

// LastResult returns the datapath result of the most recently completed
// exponentiation, or nil when none has completed or Verify is off.
func (c *Circuit) LastResult() *big.Int { return c.last }

// LastPlaintext returns the plaintext currently being encrypted (Verify
// mode only).
func (c *Circuit) LastPlaintext() *big.Int { return c.plain }

// ExpectedMeanElements returns the analytic mean active-element count
// over a full exponentiation: control + square + multiply·HW/bits. The
// tests use it to pin the activity model to the Hamming-weight leak.
func (c *Circuit) ExpectedMeanElements() float64 {
	return c.cfg.ControlElements + c.cfg.SquareElements +
		c.cfg.MultiplyElements*float64(c.weight)/float64(c.cfg.Bits)
}
