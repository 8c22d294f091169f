package rsa

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func TestSearchSpaceBitsKnownValues(t *testing.T) {
	// C(4,2)=6 -> log2 6 = 2.585.
	got, err := SearchSpaceBits(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-math.Log2(6)) > 1e-9 {
		t.Fatalf("SearchSpaceBits(4,2) = %v", got)
	}
	// HW 1 of 1024: exactly 1024 candidates -> 10 bits.
	got, _ = SearchSpaceBits(1024, 1)
	if math.Abs(got-10) > 1e-9 {
		t.Fatalf("SearchSpaceBits(1024,1) = %v, want 10", got)
	}
	// HW 0: a single candidate.
	got, _ = SearchSpaceBits(1024, 0)
	if got != 0 {
		t.Fatalf("SearchSpaceBits(1024,0) = %v", got)
	}
}

func TestSearchSpaceReduction(t *testing.T) {
	// HW 512 is the max-entropy case: C(1024,512) ~ 2^1018.3, so the
	// leak still strips ~5.7 bits.
	red, err := SearchSpaceReduction(1024, 512)
	if err != nil {
		t.Fatal(err)
	}
	if red < 5 || red > 7 {
		t.Fatalf("reduction at HW 512 = %v bits, want ~5.7", red)
	}
	// HW 64: enormous reduction.
	red, _ = SearchSpaceReduction(1024, 64)
	if red < 600 {
		t.Fatalf("reduction at HW 64 = %v bits, want > 600", red)
	}
	if _, err := SearchSpaceBits(0, 0); err == nil {
		t.Fatal("invalid width accepted")
	}
	if _, err := SearchSpaceReduction(8, 9); err == nil {
		t.Fatal("hw > bits accepted")
	}
}

// Property: reduction is minimal at hw = bits/2 and symmetric.
func TestSearchSpaceSymmetryProperty(t *testing.T) {
	f := func(w uint8) bool {
		hw := int(w) % 257
		a, err1 := SearchSpaceBits(256, hw)
		b, err2 := SearchSpaceBits(256, 256-hw)
		if err1 != nil || err2 != nil {
			return false
		}
		mid, _ := SearchSpaceBits(256, 128)
		return math.Abs(a-b) < 1e-6 && a <= mid+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateKeyPair(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	kp, err := GenerateKeyPair(256, rng) // small for test speed
	if err != nil {
		t.Fatalf("GenerateKeyPair: %v", err)
	}
	if kp.N.BitLen() != 256 {
		t.Fatalf("modulus width = %d", kp.N.BitLen())
	}
	if !kp.P.ProbablyPrime(16) || !kp.Q.ProbablyPrime(16) {
		t.Fatal("factors not prime")
	}
	if new(big.Int).Mul(kp.P, kp.Q).Cmp(kp.N) != 0 {
		t.Fatal("N != P*Q")
	}
	// Encrypt/decrypt round trip.
	msg := big.NewInt(0xDEADBEEF)
	ct := new(big.Int).Exp(msg, kp.E, kp.N)
	pt := new(big.Int).Exp(ct, kp.D, kp.N)
	if pt.Cmp(msg) != 0 {
		t.Fatal("decrypt(encrypt(m)) != m")
	}
}

func TestGenerateKeyPairValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := GenerateKeyPair(16, rng); err == nil {
		t.Fatal("narrow modulus accepted")
	}
	if _, err := GenerateKeyPair(33, rng); err == nil {
		t.Fatal("odd width accepted")
	}
	if _, err := GenerateKeyPair(256, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestRealKeyDrivesCircuit(t *testing.T) {
	// End to end: a genuine RSA private key in the victim circuit, with
	// the verified datapath decrypting a ciphertext correctly.
	stream := sim.NewRand(77)
	kp, err := GenerateKeyPair(128, rand.New(stream))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCircuit(CircuitConfig{
		Exponent:           kp.D,
		Modulus:            kp.N,
		Bits:               128,
		ClockHz:            1e6,
		CyclesPerIteration: 2,
		Rand:               stream,
		Verify:             true,
	})
	if err != nil {
		t.Fatalf("NewCircuit: %v", err)
	}
	plaintextIn := new(big.Int).Set(c.LastPlaintext())
	// 128 iterations * 2 cycles at 1 MHz = 256 us.
	for now := time.Duration(0); now < 300*time.Microsecond; now += 2 * time.Microsecond {
		c.Step(now, 2*time.Microsecond)
	}
	res := c.LastResult()
	if res == nil {
		t.Fatal("no result")
	}
	// The circuit computed plaintextIn^D mod N; E-exponentiation undoes it.
	back := new(big.Int).Exp(res, kp.E, kp.N)
	if back.Cmp(plaintextIn) != 0 {
		t.Fatal("circuit's RSA signature does not verify under the public key")
	}
}
