package rsa

import "math/big"

// Montgomery-ladder support: the classic constant-flow countermeasure
// to the square-and-multiply leak AmpereBleed exploits. Every iteration
// performs exactly one multiplication and one squaring regardless of
// the exponent bit, so the circuit's switching activity — and hence the
// current drawn — is independent of the key's Hamming weight.
//
// The ladder is enabled by CircuitConfig.Ladder. The experiments use it
// as the defense ablation: with the ladder in place the Fig. 4 attack
// collapses, with every key landing in a single indistinguishable group.

// ladderStep advances the verify-mode datapath by ladder iteration i.
// The ladder walks the exponent MSB-first over the fixed machine width;
// leading zero bits execute the same two multiplications as real bits,
// which is precisely what removes the amplitude leak.
func (c *Circuit) ladderStep(i int) {
	if c.cfg.Exponent.Bit(c.cfg.Bits-1-i) == 1 {
		// R0 = R0*R1; R1 = R1^2
		c.acc.Mul(c.acc, c.square)
		c.acc.Mod(c.acc, c.cfg.Modulus)
		c.square.Mul(c.square, c.square)
		c.square.Mod(c.square, c.cfg.Modulus)
	} else {
		// R1 = R0*R1; R0 = R0^2
		c.square.Mul(c.square, c.acc)
		c.square.Mod(c.square, c.cfg.Modulus)
		c.acc.Mul(c.acc, c.acc)
		c.acc.Mod(c.acc, c.cfg.Modulus)
	}
}

// ladderResult returns the ladder's accumulator (R0) as the final
// result.
func (c *Circuit) ladderResult() *big.Int { return new(big.Int).Set(c.acc) }
