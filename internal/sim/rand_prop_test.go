package sim_test

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/sim"
)

// op is one draw in a differential run: which method, and its bound
// where it takes one (or the new seed, for opSeed).
type op struct {
	kind int
	n    int64
}

const (
	opNorm = iota
	opFloat64
	opInt63
	opInt63n
	opIntn
	opUint64
	opSeed
	opUint32
	opInt31n
	numDirectOps
	// The rest exist only on *rand.Rand; the wrapped property uses them.
	opExp = iota - 1
	opPerm
	opBigRand
	numOps
)

var opNames = [numOps]string{"Norm", "Float64", "Int63", "Int63n", "Intn", "Uint64", "Seed",
	"Uint32", "Int31n", "Exp", "Perm", "BigRand"}

func (o op) String() string { return fmt.Sprintf("%s(%d)", opNames[o.kind], o.n) }

// specialSeeds are the seeds math/rand's seeding treats specially: zero
// and the multiples of 2³¹−1 (both become 89482311), negatives, and the
// int64 extremes whose reduction mod 2³¹−1 is signed.
var specialSeeds = []int64{
	0, -1, 1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	1<<31 - 1, 2 * (1<<31 - 1), -(1<<31 - 1), 1 << 31, -(1 << 31),
}

// genSeed draws a special seed half the time and an arbitrary int64
// otherwise.
func genSeed(r *rand.Rand) int64 {
	if r.Intn(2) == 0 {
		return specialSeeds[r.Intn(len(specialSeeds))]
	}
	return int64(r.Uint64())
}

// genBound draws a positive bound that reaches every branch of
// Int63n/Int31n/Intn: powers of two (the mask path), small values,
// values just above 2³⁰ and 2⁶² (rejection taken about half the time),
// and values above 2³¹−1 (Intn's Int63n path).
func genBound(r *rand.Rand) int64 {
	switch r.Intn(5) {
	case 0:
		return 1 << uint(r.Intn(63))
	case 1:
		return 1 + r.Int63n(100)
	case 2:
		return 1<<30 + 1 + r.Int63n(1<<20)
	case 3:
		return 1<<62 + 1 + r.Int63n(1<<40)
	default:
		return 1<<31 + r.Int63n(1<<40)
	}
}

// diffCase is a seed, how the sim.Rand under test reaches it, and an
// interleaving of draws.
type diffCase struct {
	seed  int64
	start int
	ops   []op
}

// How a diffCase's sim.Rand is set up: NewRand(seed); NewRand of
// another seed, then Seed(seed) before the first draw; or the zero
// value, then Seed(seed).
const (
	startNew = iota
	startReseeded
	startZero
	numStarts
)

var startNames = [numStarts]string{"NewRand", "NewRand+Seed", "zero+Seed"}

// newStream returns the sim.Rand c starts from.
func newStream(c diffCase) *sim.Rand {
	switch c.start {
	case startReseeded:
		r := sim.NewRand(c.seed ^ 0x5eed)
		r.Seed(c.seed)
		return r
	case startZero:
		r := new(sim.Rand)
		r.Seed(c.seed)
		return r
	}
	return sim.NewRand(c.seed)
}

// genOps generates cases whose draws span at least three 607-word
// refill cycles (every draw consumes one or more words). kinds is the set
// of methods to interleave; opSeed is drawn rarely (about one run in
// eight reseeds) so most runs cross cycle boundaries on one seed.
func genOps(kinds int) check.Gen[diffCase] {
	const minOps = 3*607 + 1
	return check.Gen[diffCase]{
		Generate: func(r *rand.Rand, _ int) diffCase {
			c := diffCase{seed: genSeed(r), start: r.Intn(numStarts), ops: make([]op, minOps+r.Intn(600))}
			for i := range c.ops {
				k := r.Intn(kinds)
				if k == opSeed && r.Intn(1000) != 0 {
					k = opNorm
				}
				o := op{kind: k}
				switch k {
				case opInt63n, opIntn, opInt31n, opPerm, opBigRand:
					o.n = genBound(r)
				case opSeed:
					o.n = genSeed(r)
				}
				c.ops[i] = o
			}
			return c
		},
		// Shrink to the shortest failing prefix: a divergence is
		// reported at its first op, so later ops never matter.
		Shrink: func(c diffCase) []diffCase {
			var out []diffCase
			for n := len(c.ops) / 2; n >= 1 && n < len(c.ops); n = (n + len(c.ops)) / 2 {
				out = append(out, diffCase{seed: c.seed, start: c.start, ops: append([]op(nil), c.ops[:n]...)})
				if n == len(c.ops)-1 {
					break
				}
			}
			return out
		},
		Describe: func(c diffCase) string {
			return fmt.Sprintf("seed %d via %s, %d ops ending %v", c.seed, startNames[c.start], len(c.ops), c.ops[len(c.ops)-1])
		},
	}
}

// stream is the method set *sim.Rand shares with *rand.Rand.
type stream interface {
	NormFloat64() float64
	Float64() float64
	Int63() int64
	Int63n(n int64) int64
	Intn(n int) int
	Uint64() uint64
	Seed(seed int64)
	Uint32() uint32
	Int31n(n int32) int32
}

// draw applies o to r and returns the result as comparable bits (zero
// for opSeed).
func draw(r stream, o op) uint64 {
	switch o.kind {
	case opNorm:
		return math.Float64bits(r.NormFloat64())
	case opFloat64:
		return math.Float64bits(r.Float64())
	case opInt63:
		return uint64(r.Int63())
	case opInt63n:
		return uint64(r.Int63n(o.n))
	case opIntn:
		return uint64(r.Intn(int(o.n)))
	case opUint64:
		return r.Uint64()
	case opSeed:
		r.Seed(o.n)
	case opUint32:
		return uint64(r.Uint32())
	case opInt31n:
		return uint64(r.Int31n(int32(o.n%(1<<31-1)) + 1))
	}
	return 0
}

// drawWrapped is draw plus the methods only *rand.Rand has.
func drawWrapped(r *rand.Rand, o op) uint64 {
	switch o.kind {
	case opExp:
		return math.Float64bits(r.ExpFloat64())
	case opPerm:
		return permKey(r.Perm(int(o.n%7) + 1))
	case opBigRand:
		return new(big.Int).Rand(r, new(big.Int).Lsh(big.NewInt(o.n), 70)).Uint64()
	}
	return draw(r, o)
}

// TestPropRandMatchesMathRand is the differential contract behind every
// engine stream: sim.Rand returns, bit for bit, what
// rand.New(rand.NewSource(seed)) returns for any interleaving of the
// methods the simulator calls, reseeding included, whether NewRand's
// deferred seeding or Seed put the stream at seed.
func TestPropRandMatchesMathRand(t *testing.T) {
	check.Forall(t, genOps(numDirectOps), func(c *check.T, in diffCase) {
		c.Label(startNames[in.start])
		got, want := newStream(in), rand.New(rand.NewSource(in.seed))
		reseeded := false
		for i, o := range in.ops {
			if g, w := draw(got, o), draw(want, o); g != w {
				c.Fatalf("op %d %v: sim.Rand %#x, math/rand %#x", i, o, g, w)
			}
			reseeded = reseeded || o.kind == opSeed
		}
		c.Classify(reseeded, "reseeded")
	})
}

// TestPropWrappedRandMatchesMathRand: rand.New over a *sim.Rand (how
// rsa.Circuit feeds big.Int.Rand) is math/rand's own sequence too,
// through the *rand.Rand methods that reach the source by Int63 as well
// as those that use Uint64.
func TestPropWrappedRandMatchesMathRand(t *testing.T) {
	check.Forall(t, genOps(numOps), func(c *check.T, in diffCase) {
		c.Label(startNames[in.start])
		got, want := rand.New(newStream(in)), rand.New(rand.NewSource(in.seed))
		for i, o := range in.ops {
			if g, w := drawWrapped(got, o), drawWrapped(want, o); g != w {
				c.Fatalf("op %d %v: rand.New(sim.Rand) %#x, math/rand %#x", i, o, g, w)
			}
		}
	})
}

// permKey packs a short permutation into one comparable word.
func permKey(p []int) uint64 {
	k := uint64(0)
	for _, v := range p {
		k = k<<4 | uint64(v)
	}
	return k
}
