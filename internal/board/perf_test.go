package board

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/hwmon"
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

// valueReader returns a function that reads every sensor's value
// attributes (curr1_input, in1_input, power1_input) through bound
// sysfs files. Each read syncs its sensor, so on a lazy PS chain it
// replays the chain's pending ticks. hwmon renders a value only when
// it changes and interns every rendering, so in steady state the reads
// themselves do not allocate.
func valueReader(t testing.TB, b *SoC) func() {
	var files []*sysfs.File
	for _, e := range b.Hwmon().Entries() {
		for _, attr := range hwmon.ValueAttrs {
			files = append(files, b.Sysfs().Bind(e.Attr(attr)))
		}
	}
	return func() {
		for _, f := range files {
			if _, err := f.Read(sysfs.Nobody); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestTickSteadyStateZeroAllocs pins the allocation contract: once
// warmed up, the board tick loop — the FPGA rail and regulator, the
// four sensitive INA226s (three with a lazy PS chain), the 14 deferred
// ones and every latch — performs zero heap allocations. It gates
// whole update windows rather than single ticks: AllocsPerRun floors
// allocations per run, so one allocation per latch (1 in 70 ticks)
// would read as 0 per tick. The stale-sensor board adds the latch fault
// hooks, the rsa board Fig. 4's victim on the fabric, and the read-all
// board reads every sensor's current, voltage and power through sysfs
// once per window, which replays all three PS chains and the 14 misc
// rails and renders the values that changed; the Run-only cases never
// sync a lazy chain. A regression here multiplies across
// the millions of ticks a fingerprinting campaign simulates.
func TestTickSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	stale, err := faults.Preset("stale-sensor")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		rsa     bool
		readAll bool
	}{
		{"clean", Config{Seed: 1}, false, false},
		{"stale-sensor", Config{Seed: 1, Faults: &stale}, false, false},
		{"rsa", Config{Seed: 1}, true, false},
		{"read-all", Config{Seed: 1}, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newSteadyBoard(t, tc.cfg)
			if tc.rsa {
				placeRSA(t, b)
				b.Run(time.Second)
			}
			read := func() {}
			if tc.readAll {
				read = valueReader(t, b)
				read() // bind the files, render the first values
			}
			allocs := testing.AllocsPerRun(50, func() {
				b.Run(ina226.DefaultUpdateInterval)
				read()
			})
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
// on a full ZCU102: the fabric, the FPGA rail and regulator, and the
// board's INA226 latch clock, which steps the FPGA sensor on the tick
// and touches the other 17, deferred, only at their latches. In idle
// nothing is read, so the three PS chains (background load, rail,
// regulator) never run; read-all reads every sensor's current, voltage
// and power through sysfs once per 35 ms window, replaying every
// deferred tick, PS chains included. allocs/op must report 0 in both.
func BenchmarkTick(b *testing.B) {
	window := int(ina226.DefaultUpdateInterval / Step)
	for _, readAll := range []bool{false, true} {
		name := "idle"
		if readAll {
			name = "read-all"
		}
		b.Run(name, func(b *testing.B) {
			soc := newSteadyBoard(b, Config{Seed: 1})
			eng := soc.Engine()
			read := valueReader(b, soc)
			read()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				eng.Tick()
				if readAll && i%window == 0 {
					read()
				}
			}
		})
	}
}

// BenchmarkRecordRun measures the attack's in-run read loop as Fig. 4
// runs it: a board with the RSA victim on the fabric and two recorders
// on its engine, polling the FPGA sensor's curr1_input and
// power1_input every 1 ms, timed through SoC.Run. One op is one 1 ms
// sample of both channels. With 2-boards, each board runs the same
// loop on a goroutine of its own, so on two cores ns/op stays at the
// 1-board figure unless the loops share something: an atomic counter
// bumped on every read shows up as a jump from 1-board to 2-boards.
func BenchmarkRecordRun(b *testing.B) {
	for _, boards := range []int{1, 2} {
		b.Run(fmt.Sprintf("%d-boards", boards), func(b *testing.B) {
			socs := make([]*SoC, boards)
			for i := range socs {
				soc := newSteadyBoard(b, Config{Seed: int64(i + 1)})
				placeRSA(b, soc)
				e, _ := soc.Hwmon().ByLabel(SensorFPGA)
				for _, attr := range []string{"curr1_input", "power1_input"} {
					rec, err := trace.NewRecorder(time.Millisecond, trace.SysfsProbe(soc.Sysfs(), sysfs.Nobody, e.Attr(attr), 1e-3))
					if err != nil {
						b.Fatal(err)
					}
					rec.Reserve(b.N + 100)
					soc.Engine().MustRegister("recorder/"+attr, rec)
				}
				soc.Run(100 * time.Millisecond) // render the first values
				socs[i] = soc
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for _, soc := range socs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					soc.Run(time.Duration(b.N) * time.Millisecond)
				}()
			}
			wg.Wait()
		})
	}
}
