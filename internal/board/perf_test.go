package board

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/ina226"
	"repro/internal/rsa"
	"repro/internal/sysfs"
	"repro/internal/trace"
)

// newSteadyBoard builds a ZCU102 and runs it past the initial latch
// transient so subsequent ticks exercise only the steady-state path.
func newSteadyBoard(t testing.TB, cfg Config) *SoC {
	t.Helper()
	b, err := NewZCU102(cfg)
	if err != nil {
		t.Fatalf("NewZCU102: %v", err)
	}
	b.Run(time.Second)
	return b
}

// placeRSA deploys Fig. 4's victim on b: the RSA-1024 square-and-
// multiply circuit with a weight-512 key, spread over every region.
func placeRSA(t testing.TB, b *SoC) {
	t.Helper()
	keyRng := rand.New(rand.NewSource(1))
	exp, err := rsa.ExponentWithHammingWeight(1024, 512, keyRng)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := rsa.Modulus(1024, keyRng)
	if err != nil {
		t.Fatal(err)
	}
	c, err := rsa.NewCircuit(rsa.CircuitConfig{Exponent: exp, Modulus: mod, Rand: b.Engine().Stream("rsa-plaintexts")})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Fabric().Place(c, b.Fabric().SpreadEvenly()); err != nil {
		t.Fatal(err)
	}
}

// TestTickSteadyStateZeroAllocs pins the allocation contract: once
// warmed up, the board tick loop — rails, regulators, the four stepped
// INA226s, the 14 deferred ones and every latch — performs zero heap
// allocations. It gates whole update windows rather than single ticks:
// AllocsPerRun floors allocations per run, so one allocation per latch
// (1 in 70 ticks) would read as 0 per tick. The stale-sensor board adds
// the latch fault hooks, the rsa board Fig. 4's victim on the fabric. A
// regression here multiplies across the millions of ticks a
// fingerprinting campaign simulates.
func TestTickSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	stale, err := faults.Preset("stale-sensor")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		rsa  bool
	}{
		{"clean", Config{Seed: 1}, false},
		{"stale-sensor", Config{Seed: 1, Faults: &stale}, false},
		{"rsa", Config{Seed: 1}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newSteadyBoard(t, tc.cfg)
			if tc.rsa {
				placeRSA(t, b)
				b.Run(time.Second)
			}
			allocs := testing.AllocsPerRun(50, func() { b.Run(ina226.DefaultUpdateInterval) })
			if allocs != 0 {
				t.Fatalf("steady-state update window allocated %v objects/op, want 0", allocs)
			}
		})
	}
}

// TestSamplingSteadyStateZeroAllocs extends the contract through the
// attacker's read path: a recorder polling curr1_input through sysfs
// (bound file, cached hwmon rendering, reserved trace capacity) must
// not allocate per tick either.
func TestSamplingSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	b := newSteadyBoard(t, Config{Seed: 1})
	probe := trace.SysfsProbe(b.Sysfs(), sysfs.Nobody, "class/hwmon/hwmon0/curr1_input", 1e-3)
	rec, err := trace.NewRecorder(35*time.Millisecond, probe)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	rec.Reserve(100000)
	b.Engine().MustRegister("recorder/alloc-test", rec)
	b.Run(time.Second) // warm the attribute render caches
	eng := b.Engine()
	allocs := testing.AllocsPerRun(500, func() { eng.Tick() })
	if allocs != 0 {
		t.Fatalf("steady-state sampling tick allocated %v objects/op, want 0", allocs)
	}
	if tr, err := rec.Trace(); err != nil || len(tr.Samples) == 0 {
		t.Fatalf("recorder captured %d samples, err %v — sampling path never ran", len(tr.Samples), err)
	}
}

// BenchmarkTick measures the steady-state cost of one simulation tick
// on a full ZCU102: the four sensitive INA226s stepped, the 14 misc-rail
// ones deferred (counted and latched, integrated only when read, which
// here is never); allocs/op must report 0.
func BenchmarkTick(b *testing.B) {
	soc := newSteadyBoard(b, Config{Seed: 1})
	eng := soc.Engine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Tick()
	}
}
