package faults

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/ina226"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestPresetsAreWellFormed(t *testing.T) {
	names := PresetNames()
	if len(names) != 5 {
		t.Fatalf("have %d presets %v, want 5", len(names), names)
	}
	for _, name := range names {
		p, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name {
			t.Errorf("preset %q carries Name %q", name, p.Name)
		}
		enabled := name != "none"
		if p.Enabled() != enabled {
			t.Errorf("preset %q Enabled() = %v, want %v", name, p.Enabled(), enabled)
		}
		for f, v := range map[string]float64{
			"SysfsErrorRate": p.SysfsErrorRate, "SysfsEIORatio": p.SysfsEIORatio,
			"StaleRate": p.StaleRate, "BitFlipRate": p.BitFlipRate,
			"JitterRate": p.JitterRate, "JitterFrac": p.JitterFrac,
			"DropoutRate": p.DropoutRate,
		} {
			if v < 0 || v > 1 {
				t.Errorf("preset %q: %s = %v outside [0,1]", name, f, v)
			}
		}
	}
	if _, err := Preset("no-such-profile"); err == nil {
		t.Error("unknown preset did not error")
	}
}

func TestScale(t *testing.T) {
	base, err := Preset("hostile")
	if err != nil {
		t.Fatal(err)
	}
	zero, err := base.Scale(0)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Enabled() {
		t.Errorf("intensity 0 still enabled: %+v", zero)
	}
	doubled, err := base.Scale(2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := doubled.SysfsErrorRate, 2*base.SysfsErrorRate; got != want {
		t.Errorf("SysfsErrorRate scaled to %v, want %v", got, want)
	}
	if doubled.HotplugRate != 2*base.HotplugRate {
		t.Errorf("HotplugRate scaled to %v, want %v", doubled.HotplugRate, 2*base.HotplugRate)
	}
	// Ratios, amplitudes, and burst lengths must not scale.
	if doubled.SysfsEIORatio != base.SysfsEIORatio ||
		doubled.JitterFrac != base.JitterFrac ||
		doubled.DropoutLen != base.DropoutLen ||
		doubled.RegTransientVolts != base.RegTransientVolts {
		t.Errorf("non-rate fields changed under Scale: %+v", doubled)
	}
	// Probabilities clamp at 1 under extreme intensity.
	extreme, err := base.Scale(1e6)
	if err != nil {
		t.Fatal(err)
	}
	if extreme.SysfsErrorRate != 1 || extreme.DropoutRate != 1 {
		t.Errorf("probabilities not clamped: %+v", extreme)
	}
	if _, err := base.Scale(-1); err == nil {
		t.Error("negative intensity did not error")
	}
}

// TestIsTransient pins that every read error the injector raises, EIO
// or EAGAIN, bare or wrapped, is one the hardened read path retries,
// and that nothing else is.
func TestIsTransient(t *testing.T) {
	eng, err := sim.NewEngine(100*time.Microsecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ratio := range []float64{0, 1} {
		in := New(Profile{SysfsErrorRate: 1, SysfsEIORatio: ratio}, eng)
		err := in.SysfsReadFault("/sys/class/hwmon/hwmon3/curr1_input")()
		if !trace.IsTransient(err) {
			t.Errorf("EIORatio %v: injected %v not classified transient", ratio, err)
		}
		if !trace.IsTransient(fmt.Errorf("read curr1_input: %w", err)) {
			t.Errorf("EIORatio %v: wrapped %v not classified transient", ratio, err)
		}
	}
	if trace.IsTransient(errors.New("permission denied")) || trace.IsTransient(nil) {
		t.Error("non-sentinel classified transient")
	}
}

func TestSysfsReadFaultTargetsMeasurementAttrsOnly(t *testing.T) {
	eng, err := sim.NewEngine(100*time.Microsecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := New(Profile{SysfsErrorRate: 1, SysfsEIORatio: 1}, eng)
	if err := in.SysfsReadFault("/sys/class/hwmon/hwmon3/curr1_input")(); !errors.Is(err, trace.ErrIO) {
		t.Errorf("measurement attr at rate 1: err = %v, want ErrIO", err)
	}
	for _, path := range []string{
		"/sys/class/hwmon/hwmon3/name",
		"/sys/class/hwmon/hwmon3/label",
		"/sys/class/hwmon/hwmon3/update_interval",
	} {
		if hook := in.SysfsReadFault(path); hook != nil {
			t.Errorf("metadata attr %s bound a fault hook", path)
		}
	}
	// EIORatio 0 => all failures are EAGAIN.
	in = New(Profile{SysfsErrorRate: 1}, eng)
	if err := in.SysfsReadFault("/sys/class/hwmon/hwmon0/in1_input")(); !errors.Is(err, trace.ErrAgain) {
		t.Errorf("EIORatio 0: err = %v, want ErrAgain", err)
	}
}

// TestInjectorStreamsAreDeterministicAndPerSite pins the core
// replayability property: two engines with the same seed produce the
// same fault sequence per site, and distinct sites never share a
// stream (so read ordering across sites cannot shift the sequences).
func TestInjectorStreamsAreDeterministicAndPerSite(t *testing.T) {
	p := Profile{SysfsErrorRate: 0.5, SysfsEIORatio: 0.5}
	sequence := func(in *Injector, path string, n int) []bool {
		hook := in.SysfsReadFault(path)
		out := make([]bool, n)
		for i := range out {
			out[i] = hook() != nil
		}
		return out
	}
	mk := func(seed int64) *Injector {
		eng, err := sim.NewEngine(100*time.Microsecond, seed)
		if err != nil {
			t.Fatal(err)
		}
		return New(p, eng)
	}
	const n = 64
	a, b := mk(7), mk(7)
	pathA, pathB := "/sys/class/hwmon/hwmon0/curr1_input", "/sys/class/hwmon/hwmon1/curr1_input"

	// Same seed, same site: identical sequence — even when the other
	// site's reads are interleaved differently.
	seqA := sequence(a, pathA, n)
	for i := 0; i < n; i++ {
		sequence(b, pathB, 3) // extra draws on the *other* site
		if got := sequence(b, pathA, 1)[0]; got != seqA[i] {
			t.Fatalf("read %d of %s diverged once %s was interleaved", i, pathA, pathB)
		}
	}

	// Different seed: the sequence must change somewhere.
	c := mk(8)
	if seqC := sequence(c, pathA, n); equalBools(seqA, seqC) {
		t.Error("seed change did not change the fault sequence")
	}
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSensorFaultsDrawOrder pins the latch hooks to their streams: a
// stale decision is one Float64 on the stale stream; a flip decision is
// Float64, then Intn(4) for the register, then Intn(16) for the bit, on
// the flip stream, and the hook returns exactly that bit as its mask.
func TestSensorFaultsDrawOrder(t *testing.T) {
	const seed, label, rate = 5, "ina226_u78", 0.5
	eng, err := sim.NewEngine(100*time.Microsecond, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := New(Profile{StaleRate: rate, BitFlipRate: rate}, eng).SensorFaults(label)
	ref, err := sim.NewEngine(100*time.Microsecond, seed)
	if err != nil {
		t.Fatal(err)
	}
	stale, flip := ref.Stream("faults/ina226/stale/"+label), ref.Stream("faults/ina226/flip/"+label)
	flips := 0
	for i := 0; i < 200; i++ {
		if got, want := h.SkipLatch(), stale.Float64() < rate; got != want {
			t.Fatalf("latch %d: SkipLatch = %v, want %v", i, got, want)
		}
		var want ina226.LatchedRegs
		if flip.Float64() < rate {
			reg, bit := flip.Intn(4), int32(1)<<uint(flip.Intn(16))
			*[]*int32{&want.Shunt, &want.Bus, &want.Current, &want.Power}[reg] = bit
			flips++
		}
		if got := h.FlipLatch(); got != want {
			t.Fatalf("latch %d: FlipLatch = %+v, want %+v", i, got, want)
		}
	}
	if flips == 0 {
		t.Fatal("no latch flipped a bit")
	}
	if h := New(Profile{SysfsErrorRate: 1}, eng).SensorFaults(label); h.SkipLatch != nil || h.FlipLatch != nil {
		t.Error("profile without latch faults installed latch hooks")
	}
}

func TestSamplerFaultsNilWhenDisabled(t *testing.T) {
	eng, err := sim.NewEngine(100*time.Microsecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sf := New(Profile{SysfsErrorRate: 1}, eng).SamplerFaults("sampler/x"); sf != nil {
		t.Error("profile without jitter/dropout returned a sampler hook")
	}
	sf := New(Profile{JitterRate: 1, JitterFrac: 0.5, DropoutRate: 1, DropoutLen: 4}, eng).SamplerFaults("sampler/x")
	if sf == nil {
		t.Fatal("enabled profile returned nil sampler hook")
	}
	const interval = time.Millisecond
	if d := sf.JitterDelay(interval); d <= 0 || d > interval/2 {
		t.Errorf("jitter delay %v outside (0, %v]", d, interval/2)
	}
	if n := sf.DropoutLen(); n < 1 || n > 4 {
		t.Errorf("dropout burst %d outside [1,4]", n)
	}
}

func TestRegulatorDisturbanceDecays(t *testing.T) {
	eng, err := sim.NewEngine(100*time.Microsecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := New(Profile{RegTransientRate: 1e6, RegTransientVolts: 0.05}, eng)
	dist := in.RegulatorDisturbance("vccint")
	if dist == nil {
		t.Fatal("enabled profile returned nil disturbance")
	}
	// At an absurd rate the very first tick fires a transient.
	v0 := dist(eng.Dt())
	if v0 == 0 {
		t.Fatal("no transient fired at rate 1e6/s")
	}
	if v0 < -0.05 || v0 > 0.05 {
		t.Errorf("transient amplitude %v outside ±0.05", v0)
	}
	// Disabled profiles produce no hook.
	if d := New(Profile{}, eng).RegulatorDisturbance("vccint"); d != nil {
		t.Error("zero profile returned a disturbance hook")
	}
}
