package rsa

// Differential suite for Circuit.Step's closed-form activity. The
// reference below is the state machine Step used to walk: one loop
// pass per iteration the tick touches, summing elements·cycles. Both
// run the same random ticks on the same random circuit; after every
// tick the activity must agree bit for bit, as must the exponentiation
// count, the next draw from the plaintext stream and, with Verify on,
// the datapath's last result.

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/sim"
)

// refCircuit is the per-iteration reference model.
type refCircuit struct {
	cfg  CircuitConfig // defaults filled in
	bits []bool

	iter, cycleInIter int
	activity          float64

	bigRand         *rand.Rand
	plain, acc, sq  *big.Int
	last            *big.Int
	exponentiations uint64
}

func newRefCircuit(cfg CircuitConfig) *refCircuit {
	c := &refCircuit{cfg: cfg, bits: make([]bool, cfg.Bits)}
	for i := range c.bits {
		c.bits[i] = cfg.Exponent.Bit(i) == 1
	}
	if cfg.Verify {
		c.bigRand = rand.New(cfg.Rand)
	}
	c.start()
	return c
}

func (c *refCircuit) start() {
	c.iter, c.cycleInIter = 0, 0
	if c.cfg.Verify {
		c.plain = new(big.Int).Rand(c.bigRand, c.cfg.Modulus)
		if c.plain.Sign() == 0 {
			c.plain.SetInt64(1)
		}
		c.acc = big.NewInt(1)
		c.sq = new(big.Int).Set(c.plain)
	}
}

func (c *refCircuit) mulmod(z, x, y *big.Int) {
	z.Mul(x, y)
	z.Mod(z, c.cfg.Modulus)
}

func (c *refCircuit) finishIteration() {
	if c.cfg.Verify {
		switch {
		case !c.cfg.Ladder:
			if c.bits[c.iter] {
				c.mulmod(c.acc, c.acc, c.sq)
			}
			c.mulmod(c.sq, c.sq, c.sq)
		case c.bits[c.cfg.Bits-1-c.iter]:
			c.mulmod(c.acc, c.acc, c.sq)
			c.mulmod(c.sq, c.sq, c.sq)
		default:
			c.mulmod(c.sq, c.sq, c.acc)
			c.mulmod(c.acc, c.acc, c.acc)
		}
	}
	c.iter++
	c.cycleInIter = 0
	if c.iter == c.cfg.Bits {
		if c.cfg.Verify {
			c.last = new(big.Int).Set(c.acc)
		}
		c.exponentiations++
		c.start()
	}
}

func (c *refCircuit) iterationElements(i int) float64 {
	e := c.cfg.ControlElements + c.cfg.SquareElements
	if c.cfg.Ladder || c.bits[i] {
		e += c.cfg.MultiplyElements
	}
	return e
}

func (c *refCircuit) step(dt time.Duration) {
	cycles := int(dt.Seconds() * c.cfg.ClockHz)
	if cycles <= 0 {
		cycles = 1
	}
	remaining := cycles
	var elementCycles float64
	for remaining > 0 {
		use := min(c.cfg.CyclesPerIteration-c.cycleInIter, remaining)
		elementCycles += c.iterationElements(c.iter) * float64(use)
		c.cycleInIter += use
		remaining -= use
		if c.cycleInIter == c.cfg.CyclesPerIteration {
			c.finishIteration()
		}
	}
	c.activity = elementCycles / float64(cycles)
}

// tickKind picks how a tick's cycle count is derived: a fixed length,
// or the distance to the next iteration or exponentiation boundary
// from wherever the machine stands.
type tickKind int

const (
	tickOne    tickKind = iota // 1 cycle
	tickIters                  // N iterations
	tickExps                   // N exponentiations
	tickToIter                 // to the end of the current iteration
	tickToExp                  // to the end of the current exponentiation, plus N-1 more
	tickAny                    // 1 + N mod (3E+P) cycles: up to three exponentiations and an iteration
)

var tickNames = [...]string{"one", "iters", "exps", "to-iter", "to-exp", "any"}

type tick struct {
	Kind tickKind
	N    int
}

func (t tick) String() string { return fmt.Sprintf("%s(%d)", tickNames[t.Kind], t.N) }

// cycles resolves t against a machine of P cycles per iteration and E
// per exponentiation, standing pos cycles into its exponentiation.
func (t tick) cycles(p, e, pos int) int {
	switch t.Kind {
	case tickOne:
		return 1
	case tickIters:
		return t.N * p
	case tickExps:
		return t.N * e
	case tickToIter:
		return p - pos%p
	case tickToExp:
		return e - pos + (t.N-1)*e
	default:
		return 1 + t.N%(3*e+p)
	}
}

// scenario is one circuit and the ticks it runs.
type scenario struct {
	Seed                      int64
	Bits, P                   int
	Exponent, Modulus         uint64
	Control, Square, Multiply float64
	Ladder, Verify            bool
	Ticks                     []tick
}

func (s scenario) config(rng *sim.Rand) CircuitConfig {
	return CircuitConfig{
		Exponent:           new(big.Int).SetUint64(s.Exponent),
		Modulus:            new(big.Int).SetUint64(s.Modulus),
		Bits:               s.Bits,
		ClockHz:            DefaultClockHz,
		CyclesPerIteration: s.P,
		ControlElements:    s.Control,
		SquareElements:     s.Square,
		MultiplyElements:   s.Multiply,
		Ladder:             s.Ladder,
		Verify:             s.Verify,
		Rand:               rng,
	}
}

var ticks = check.SliceOf(check.Gen[tick]{
	Generate: func(r *rand.Rand, _ int) tick {
		t := tick{Kind: tickKind(r.Intn(int(tickAny) + 1))}
		switch t.Kind {
		case tickIters:
			t.N = 1 + r.Intn(5)
		case tickExps, tickToExp:
			t.N = 1 + r.Intn(4) // up to four: more than two exponentiations per tick
		case tickAny:
			t.N = r.Intn(1 << 20)
		}
		return t
	},
	Describe: tick.String,
}, 1, 40)

var scenarios = check.Gen[scenario]{
	Generate: func(r *rand.Rand, size int) scenario {
		s := scenario{
			Seed:     r.Int63(),
			Bits:     1 + r.Intn(64),
			P:        []int{1, 2, 1 + r.Intn(50), 1 + r.Intn(3000)}[r.Intn(4)],
			Modulus:  uint64(r.Int63n(1<<40))*2 + 3, // odd, > 2
			Control:  float64(1 + r.Intn(20000)),
			Square:   float64(1 + r.Intn(20000)),
			Multiply: float64(1 + r.Intn(20000)),
			Ladder:   r.Intn(2) == 0,
			Ticks:    ticks.Generate(r, size),
		}
		s.Exponent = r.Uint64() >> (64 - s.Bits)
		if s.Exponent == 0 {
			s.Exponent = 1
		}
		s.Verify = s.Bits <= 16 && r.Intn(2) == 0
		return s
	},
	Shrink: func(s scenario) []scenario {
		var out []scenario
		for _, cand := range ticks.Shrink(s.Ticks) {
			q := s
			q.Ticks = cand
			out = append(out, q)
		}
		return out
	},
	Describe: func(s scenario) string {
		return fmt.Sprintf("seed=%d bits=%d P=%d exp=%#x mod=%d elements=%v/%v/%v ladder=%v verify=%v ticks=%s",
			s.Seed, s.Bits, s.P, s.Exponent, s.Modulus, s.Control, s.Square, s.Multiply,
			s.Ladder, s.Verify, ticks.Describe(s.Ticks))
	},
}

// durationFor returns a tick length that c turns into exactly cycles
// cycles. At 100 MHz a whole number of 10 ns steps either converts
// exactly or falls one cycle short, which one extra nanosecond fixes.
func durationFor(c *Circuit, cycles int) time.Duration {
	dt := time.Duration(cycles) * time.Duration(1e9/c.cfg.ClockHz)
	if c.tickCycles(dt) != cycles {
		dt++
	}
	return dt
}

// stepMatchesReference is the property; mutate, when non-nil, damages
// the circuit after construction (the mutants).
func stepMatchesReference(mutate func(*Circuit)) func(*check.T, scenario) {
	return func(ct *check.T, s scenario) {
		c, err := NewCircuit(s.config(sim.NewRand(s.Seed)))
		if err != nil {
			ct.Fatalf("NewCircuit: %v", err)
		}
		if mutate != nil {
			mutate(c)
		}
		refCfg := c.cfg
		refCfg.Rand = sim.NewRand(s.Seed)
		ref := newRefCircuit(refCfg)
		p, e := s.P, s.Bits*s.P
		boundary := false
		for i, t := range s.Ticks {
			pos := ref.iter*p + ref.cycleInIter
			cycles := t.cycles(p, e, pos)
			dt := durationFor(c, cycles)
			if got := c.tickCycles(dt); got != cycles {
				ct.Fatalf("tick %d %v: no duration gives %d cycles (got %d)", i, t, cycles, got)
			}
			c.Step(0, dt)
			ref.step(dt)
			if g, w := c.ActiveElements(), ref.activity; math.Float64bits(g) != math.Float64bits(w) {
				ct.Fatalf("tick %d %v (%d cycles from %d): activity %v, reference %v", i, t, cycles, pos, g, w)
			}
			if g, w := c.Exponentiations(), ref.exponentiations; g != w {
				ct.Fatalf("tick %d %v: exponentiations %d, reference %d", i, t, g, w)
			}
			if g, w := c.cfg.Rand.Int63(), ref.cfg.Rand.Int63(); g != w {
				ct.Fatalf("tick %d %v: next plaintext-stream draw %d, reference %d", i, t, g, w)
			}
			if s.Verify && !sameInt(c.LastResult(), ref.last) {
				ct.Fatalf("tick %d %v: last result %v, reference %v", i, t, c.LastResult(), ref.last)
			}
			boundary = boundary || (pos+cycles)%p == 0
		}
		ct.Classify(s.Ladder, "ladder")
		ct.Classify(s.Verify, "verify")
		ct.Classify(boundary, "ends on an iteration boundary")
	}
}

func sameInt(a, b *big.Int) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Cmp(b) == 0
}

func TestPropCircuitStepMatchesReference(t *testing.T) {
	check.Forall(t, scenarios, stepMatchesReference(nil))
}

// TestMutantIterationBoundary moves every iteration's multiplier one
// iteration across its boundary, early or late, and requires the
// differential property to notice.
func TestMutantIterationBoundary(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shift int // iteration i takes iteration i+shift's multiplier
	}{
		{"early", 1},
		{"late", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mutate := func(c *Circuit) {
				mask := make([]uint64, len(c.mulMask))
				for i := 0; i < c.cfg.Bits; i++ {
					if j := i + tc.shift; j >= 0 && j < c.cfg.Bits && c.multiplies(j) {
						mask[i/64] |= 1 << (i % 64)
					}
				}
				c.setMulMask(mask)
			}
			rep := check.Run(t.Name(), scenarios, stepMatchesReference(mutate), check.Iters(200))
			if rep.ConfigErr != "" {
				t.Fatal(rep.ConfigErr)
			}
			if !rep.Failed {
				t.Fatalf("multiplier schedule shifted by %+d iteration went unnoticed in %d scenarios", tc.shift, rep.Iters)
			}
			t.Logf("caught at scenario %d: %s", rep.FailIter, rep.Logs)
		})
	}
}
