package rsa

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
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
	// activity model; zero means the defaults. They count logic
	// elements, so they must be whole numbers: Step's closed-form
	// activity is exact only for whole counts (see Step).
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
	weight int
	// mulMask has one bit per iteration, LSB first in 64-bit words, set
	// when the iteration runs the multiplier (every iteration with
	// Ladder). mulBefore[w] counts the set bits of words 0..w-1, so
	// mulBefore[len(mulMask)] is the count per exponentiation.
	mulMask   []uint64
	mulBefore []int

	// state machine
	pos      int     // cycle position within the exponentiation, in [0, Bits·CyclesPerIteration)
	activity float64 // mean active elements over the last tick

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
	for _, e := range []float64{cfg.SquareElements, cfg.MultiplyElements, cfg.ControlElements} {
		if e < 0 {
			return nil, errors.New("rsa: negative activity model")
		}
		if e != math.Trunc(e) || math.IsInf(e, 0) {
			return nil, fmt.Errorf("rsa: element count %v is not a whole number", e)
		}
	}

	cfg.Exponent = new(big.Int).Set(cfg.Exponent) // the Verify datapath reads its bits
	c := &Circuit{cfg: cfg}
	mask := make([]uint64, (cfg.Bits+63)/64)
	for i := 0; i < cfg.Bits; i++ {
		if cfg.Ladder || cfg.Exponent.Bit(i) == 1 {
			mask[i/64] |= 1 << (i % 64)
		}
	}
	c.setMulMask(mask)
	c.weight = HammingWeight(cfg.Exponent)
	if cfg.Verify {
		c.bigRand = rand.New(cfg.Rand)
		c.startExponentiation()
	}
	return c, nil
}

// setMulMask installs the multiplier schedule and its word prefix
// counts.
func (c *Circuit) setMulMask(mask []uint64) {
	c.mulMask = mask
	c.mulBefore = make([]int, len(mask)+1)
	for w, m := range mask {
		c.mulBefore[w+1] = c.mulBefore[w] + bits.OnesCount64(m)
	}
}

// multiplies reports whether iteration i runs the multiply module:
// only on a 1-bit — unless the Montgomery ladder is enabled, in which
// case both modules run on every iteration and the activity is
// bit-independent.
func (c *Circuit) multiplies(i int) bool { return c.mulMask[i/64]>>(i%64)&1 == 1 }

// mulsBefore returns how many of iterations 0..i-1 run the multiplier.
func (c *Circuit) mulsBefore(i int) int {
	w, b := i/64, i%64
	return c.mulBefore[w] + bits.OnesCount64(c.mulMask[w]&(1<<b-1))
}

// startExponentiation draws a fresh plaintext and resets the Verify
// datapath.
func (c *Circuit) startExponentiation() {
	c.plain = new(big.Int).Rand(c.bigRand, c.cfg.Modulus)
	if c.plain.Sign() == 0 {
		c.plain.SetInt64(1)
	}
	c.acc = big.NewInt(1)
	c.square = new(big.Int).Set(c.plain)
}

// finishIteration advances the Verify datapath by one square-and-
// multiply (or ladder) step: iteration i of the exponentiation. After
// the last iteration it records the result and starts the next
// exponentiation.
func (c *Circuit) finishIteration(i int) {
	if c.cfg.Ladder {
		c.ladderStep(i)
	} else {
		if c.cfg.Exponent.Bit(i) == 1 {
			c.acc.Mul(c.acc, c.square)
			c.acc.Mod(c.acc, c.cfg.Modulus)
		}
		c.square.Mul(c.square, c.square)
		c.square.Mod(c.square, c.cfg.Modulus)
	}
	if i == c.cfg.Bits-1 {
		c.last = c.ladderResult() // accumulator (R0) in both modes
		c.startExponentiation()
	}
}

// mulCycles returns M(y): how many of the first y cycles of back-to-back
// exponentiations run the multiplier. Cycle y lies in exponentiation
// y/E, iteration i = (y%E)/P, r = (y%E)%P cycles into it.
func (c *Circuit) mulCycles(y int) int {
	p := c.cfg.CyclesPerIteration
	e := c.cfg.Bits * p
	n, y := y/e, y%e
	i, r := y/p, y%p
	m := (n*c.mulBefore[len(c.mulMask)] + c.mulsBefore(i)) * p
	if c.multiplies(i) {
		m += r
	}
	return m
}

// tickCycles is the whole number of circuit cycles in a tick of dt, at
// least one.
func (c *Circuit) tickCycles(dt time.Duration) int {
	cycles := int(dt.Seconds() * c.cfg.ClockHz)
	if cycles <= 0 {
		cycles = 1
	}
	return cycles
}

// CircuitName implements fabric.Circuit.
func (c *Circuit) CircuitName() string { return "rsa1024" }

// Utilization implements fabric.Circuit: two 1024-bit multipliers and a
// control machine, sized to a realistic fraction of the ZU9EG.
func (c *Circuit) Utilization() fabric.Resources {
	return fabric.Resources{LUTs: 30000, FFs: 42000, DSPs: 256}
}

// Step implements fabric.Circuit: consume dt worth of circuit cycles
// and average the active-element count over the tick. Control and
// square run on every cycle, multiply on mul = M(pos+C) − M(pos) of
// the tick's C cycles, so the mean is
//
//	((Control+Square)·C + Multiply·mul) / C
//
// with no walk over the iterations the tick crosses.
//
// This equals, bit for bit, summing elements·cycles iteration by
// iteration. Element counts are whole numbers (NewCircuit rejects any
// other), so every product and partial sum of either form is a whole
// number no larger than (Control+Square+Multiply)·C. Below 2⁵³ every
// such number is a float64 and every operation on them is exact, so
// both forms reach the same exact numerator before the one division.
// At the defaults (16,900 elements, 100 MHz) that holds for any tick
// under 88 minutes; Fig. 4's 500 µs tick reaches 8.5e8.
//
// With Verify on, the big-int datapath still runs once per iteration
// the tick completes, restarting each finished exponentiation.
func (c *Circuit) Step(now, dt time.Duration) {
	cycles := c.tickCycles(dt)
	end := c.pos + cycles
	mul := c.mulCycles(end) - c.mulCycles(c.pos)
	c.activity = ((c.cfg.ControlElements+c.cfg.SquareElements)*float64(cycles) +
		c.cfg.MultiplyElements*float64(mul)) / float64(cycles)
	p := c.cfg.CyclesPerIteration
	if c.cfg.Verify {
		for k := c.pos / p; k < end/p; k++ {
			c.finishIteration(k % c.cfg.Bits)
		}
	}
	e := c.cfg.Bits * p
	c.exponentiations += uint64(end / e)
	c.pos = end % e
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
// mode only; nil otherwise).
func (c *Circuit) LastPlaintext() *big.Int { return c.plain }

// ExpectedMeanElements returns the analytic mean active-element count
// over a full exponentiation: control + square + multiply·HW/bits. The
// tests use it to pin the activity model to the Hamming-weight leak.
func (c *Circuit) ExpectedMeanElements() float64 {
	return c.cfg.ControlElements + c.cfg.SquareElements +
		c.cfg.MultiplyElements*float64(c.weight)/float64(c.cfg.Bits)
}
