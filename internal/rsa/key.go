// Package rsa implements the RSA-1024 victim circuit of the paper's
// Sec. IV-C: a square-and-multiply modular exponentiation engine with
// two dedicated modular multiplication modules and a bit-serial state
// machine, clocked at 100 MHz, whose secret exponent is embedded in the
// (encrypted) bitstream.
//
// The power side channel arises from the classic control-flow leak: on
// every iteration the square module runs, and the multiply module runs
// only when the current exponent bit is 1. Average switching activity is
// therefore an affine function of the key's Hamming weight — the
// quantity AmpereBleed recovers from the FPGA current sensor.
package rsa

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
)

// ExponentWithHammingWeight returns a bits-wide exponent with exactly hw
// one-bits, placed uniformly at random among the bit positions. hw must
// lie in [1, bits]; the paper's key set starts at HW=1 because the
// circuit does not support an exponent of 0.
func ExponentWithHammingWeight(bits, hw int, rng *rand.Rand) (*big.Int, error) {
	if bits <= 0 {
		return nil, errors.New("rsa: non-positive width")
	}
	if hw < 1 || hw > bits {
		return nil, fmt.Errorf("rsa: hamming weight %d outside [1,%d]", hw, bits)
	}
	if rng == nil {
		return nil, errors.New("rsa: nil random stream")
	}
	// Partial Fisher-Yates over bit positions: pick hw distinct slots.
	pos := make([]int, bits)
	for i := range pos {
		pos[i] = i
	}
	e := new(big.Int)
	for i := 0; i < hw; i++ {
		j := i + rng.Intn(bits-i)
		pos[i], pos[j] = pos[j], pos[i]
		e.SetBit(e, pos[i], 1)
	}
	return e, nil
}

// HammingWeight returns the number of one-bits in x (x >= 0).
func HammingWeight(x *big.Int) int {
	n := 0
	for _, w := range x.Bits() {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// PaperHammingWeights returns the 17 weights used in Fig. 4.
func PaperHammingWeights() []int {
	ws := make([]int, 0, 17)
	ws = append(ws, 1)
	for hw := 64; hw <= 1024; hw += 64 {
		ws = append(ws, hw)
	}
	return ws
}

// Modulus returns a bits-wide odd modulus with the top bit set, drawn
// from rng. The circuit's power behaviour depends only on the operand
// widths and the exponent's bit pattern, not on the modulus being a
// product of primes, so a pseudo-modulus keeps key setup fast; callers
// needing genuine RSA parameters can pass any odd modulus instead.
func Modulus(bits int, rng *rand.Rand) (*big.Int, error) {
	if bits < 2 {
		return nil, errors.New("rsa: modulus too narrow")
	}
	if rng == nil {
		return nil, errors.New("rsa: nil random stream")
	}
	n := new(big.Int)
	words := (bits + 31) / 32
	for i := 0; i < words; i++ {
		n.Lsh(n, 32)
		n.Or(n, big.NewInt(int64(rng.Uint32())))
	}
	// Trim to width, force top and bottom bits.
	n.SetBit(n, bits-1, 1)
	n.SetBit(n, 0, 1)
	mask := new(big.Int).Lsh(big.NewInt(1), uint(bits))
	mask.Sub(mask, big.NewInt(1))
	n.And(n, mask)
	return n, nil
}
