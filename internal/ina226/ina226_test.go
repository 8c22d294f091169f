package ina226

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

// fixedProbe returns a probe reading constant values.
func fixedProbe(amps, volts float64) Probe {
	return Probe{
		CurrentAmps: func() float64 { return amps },
		BusVolts:    func() float64 { return volts },
	}
}

func newDev(t *testing.T, amps, volts float64) *Device {
	t.Helper()
	d, err := New(Config{
		Label:      "ina226_u79",
		ShuntOhms:  0.002,
		CurrentLSB: 1e-3,
		Probe:      fixedProbe(amps, volts),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

// run advances the device by d of simulated time at a 100us step.
func run(dev *Device, d time.Duration) {
	const dt = 100 * time.Microsecond
	for now := time.Duration(0); now < d; now += dt {
		dev.Step(now, dt)
	}
}

func TestNewValidation(t *testing.T) {
	good := Config{Label: "x", ShuntOhms: 0.002, CurrentLSB: 1e-3, Probe: fixedProbe(1, 1)}
	cases := []func(Config) Config{
		func(c Config) Config { c.Label = ""; return c },
		func(c Config) Config { c.ShuntOhms = 0; return c },
		func(c Config) Config { c.CurrentLSB = 0; return c },
		func(c Config) Config { c.Probe.CurrentAmps = nil; return c },
		func(c Config) Config { c.Probe.BusVolts = nil; return c },
		func(c Config) Config { c.NoiseShuntVolts = 1e-6; return c }, // noise without rng
		func(c Config) Config { c.NoiseShuntVolts = -1; c.Rand = sim.NewRand(1); return c },
		func(c Config) Config { c.UpdateInterval = time.Millisecond; return c },      // < 2ms
		func(c Config) Config { c.UpdateInterval = 50 * time.Millisecond; return c }, // > 35ms
		func(c Config) Config { c.ShuntOhms = 1000; return c },                       // cal register underflow
	}
	for i, mutate := range cases {
		if _, err := New(mutate(good)); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestCalibrationRegister(t *testing.T) {
	d := newDev(t, 0, 0)
	// CAL = 0.00512/(1e-3 * 0.002) = 2560
	if d.Calibration() != 2560 {
		t.Fatalf("Calibration = %d, want 2560", d.Calibration())
	}
	if d.CurrentLSB() != 1e-3 {
		t.Fatalf("CurrentLSB = %v", d.CurrentLSB())
	}
	if d.PowerLSB() != 25e-3 {
		t.Fatalf("PowerLSB = %v, want 25mW", d.PowerLSB())
	}
	if d.ShuntOhms() != 0.002 {
		t.Fatalf("ShuntOhms = %v", d.ShuntOhms())
	}
	if d.Label() != "ina226_u79" {
		t.Fatalf("Label = %q", d.Label())
	}
}

func TestDefaultUpdateInterval(t *testing.T) {
	d := newDev(t, 0, 0)
	if d.UpdateInterval() != 35*time.Millisecond {
		t.Fatalf("default interval = %v, want 35ms", d.UpdateInterval())
	}
}

func TestSetUpdateInterval(t *testing.T) {
	d := newDev(t, 0, 0)
	if err := d.SetUpdateInterval(2 * time.Millisecond); err != nil {
		t.Fatalf("SetUpdateInterval(2ms): %v", err)
	}
	if d.UpdateInterval() != 2*time.Millisecond {
		t.Fatal("interval not applied")
	}
	if err := d.SetUpdateInterval(time.Millisecond); err == nil {
		t.Fatal("1ms accepted")
	}
	if err := d.SetUpdateInterval(36 * time.Millisecond); err == nil {
		t.Fatal("36ms accepted")
	}
}

func TestRegistersZeroBeforeFirstLatch(t *testing.T) {
	d := newDev(t, 6, 0.85)
	r := d.Read()
	if r.CurrentAmps != 0 || r.BusVolts != 0 || r.PowerWatts != 0 || r.Updates != 0 {
		t.Fatalf("pre-latch read = %+v", r)
	}
	// One step is far less than 35ms; still nothing latched.
	d.Step(0, 100*time.Microsecond)
	if d.Updates() != 0 {
		t.Fatal("latched too early")
	}
}

func TestDatasheetPipeline(t *testing.T) {
	// 6 A through 2 mΩ = 12 mV shunt; 0.85 V bus.
	d := newDev(t, 6, 0.85)
	run(d, 35*time.Millisecond)
	if d.Updates() != 1 {
		t.Fatalf("Updates = %d, want 1", d.Updates())
	}
	if d.RegShunt() != 4800 { // 12mV / 2.5uV
		t.Fatalf("RegShunt = %d, want 4800", d.RegShunt())
	}
	if d.RegBus() != 680 { // 0.85 / 1.25mV
		t.Fatalf("RegBus = %d, want 680", d.RegBus())
	}
	if d.RegCurrent() != 6000 { // 4800*2560/2048
		t.Fatalf("RegCurrent = %d, want 6000", d.RegCurrent())
	}
	if d.RegPower() != 204 { // 6000*680/20000
		t.Fatalf("RegPower = %d, want 204", d.RegPower())
	}
	r := d.Read()
	if math.Abs(r.CurrentAmps-6.0) > 1e-9 {
		t.Fatalf("CurrentAmps = %v, want 6.0", r.CurrentAmps)
	}
	if math.Abs(r.BusVolts-0.85) > 1e-9 {
		t.Fatalf("BusVolts = %v, want 0.85", r.BusVolts)
	}
	if math.Abs(r.PowerWatts-5.1) > 1e-9 {
		t.Fatalf("PowerWatts = %v, want 5.1", r.PowerWatts)
	}
}

func TestQuantizationToLSBs(t *testing.T) {
	// 1.2345 A should quantize to whole mA; bus of 0.8507 V to 1.25 mV.
	d := newDev(t, 1.2345, 0.8507)
	run(d, 35*time.Millisecond)
	r := d.Read()
	gotMA := r.CurrentAmps * 1000
	if math.Abs(gotMA-math.Round(gotMA)) > 1e-9 {
		t.Fatalf("current %v A not on 1 mA grid", r.CurrentAmps)
	}
	steps := r.BusVolts / BusLSB
	if math.Abs(steps-math.Round(steps)) > 1e-6 {
		t.Fatalf("bus %v V not on 1.25 mV grid", r.BusVolts)
	}
	stepsP := r.PowerWatts / d.PowerLSB()
	if math.Abs(stepsP-math.Round(stepsP)) > 1e-6 {
		t.Fatalf("power %v W not on 25 mW grid", r.PowerWatts)
	}
}

func TestRegistersHoldBetweenUpdates(t *testing.T) {
	amps := 3.0
	probe := Probe{
		CurrentAmps: func() float64 { return amps },
		BusVolts:    func() float64 { return 0.85 },
	}
	d, err := New(Config{Label: "x", ShuntOhms: 0.002, CurrentLSB: 1e-3, Probe: probe})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	run(d, 35*time.Millisecond)
	first := d.Read()
	amps = 9.0 // step change mid-window
	run(d, 10*time.Millisecond)
	if got := d.Read(); got != first {
		t.Fatalf("registers changed mid-window: %+v -> %+v", first, got)
	}
	run(d, 25*time.Millisecond) // complete the second window
	second := d.Read()
	if second.Updates != 2 {
		t.Fatalf("Updates = %d, want 2", second.Updates)
	}
	if second.CurrentAmps <= first.CurrentAmps {
		t.Fatal("step change not reflected after latch")
	}
}

func TestWindowAveraging(t *testing.T) {
	// Current alternates 0/8 A every tick: the latched value must be the
	// window mean (~4 A), not either extreme.
	flip := false
	probe := Probe{
		CurrentAmps: func() float64 {
			flip = !flip
			if flip {
				return 8
			}
			return 0
		},
		BusVolts: func() float64 { return 0.85 },
	}
	d, err := New(Config{Label: "x", ShuntOhms: 0.002, CurrentLSB: 1e-3, Probe: probe})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	run(d, 35*time.Millisecond)
	r := d.Read()
	if math.Abs(r.CurrentAmps-4.0) > 0.05 {
		t.Fatalf("averaged current = %v, want ~4.0", r.CurrentAmps)
	}
}

func TestFasterIntervalLatchesMoreOften(t *testing.T) {
	d := newDev(t, 1, 0.85)
	if err := d.SetUpdateInterval(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	run(d, 70*time.Millisecond)
	if d.Updates() != 35 {
		t.Fatalf("Updates = %d, want 35 at 2ms over 70ms", d.Updates())
	}
}

func TestNegativeBusClampsToZero(t *testing.T) {
	d, err := New(Config{Label: "x", ShuntOhms: 0.002, CurrentLSB: 1e-3,
		Probe: fixedProbe(1, -0.5)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	run(d, 35*time.Millisecond)
	if d.RegBus() != 0 {
		t.Fatalf("RegBus = %d, want 0 for negative bus", d.RegBus())
	}
	if d.Read().PowerWatts != 0 {
		t.Fatal("power should be zero with zero bus")
	}
}

func TestShuntRegisterSaturates(t *testing.T) {
	// 100 A * 2 mΩ = 200 mV >> 81.9 mV full scale; register must clamp.
	d := newDev(t, 100, 0.85)
	run(d, 35*time.Millisecond)
	if d.RegShunt() != math.MaxInt16 {
		t.Fatalf("RegShunt = %d, want saturation at %d", d.RegShunt(), math.MaxInt16)
	}
}

func TestNoiseAveragesOut(t *testing.T) {
	rng := sim.NewRand(11)
	d, err := New(Config{
		Label: "x", ShuntOhms: 0.002, CurrentLSB: 1e-3,
		Probe:           fixedProbe(5, 0.85),
		NoiseShuntVolts: 20e-6, // 8 raw LSBs of analog noise
		Rand:            rng,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	run(d, 35*time.Millisecond)
	r := d.Read()
	// 350 averaged samples shrink sigma ~19x; the latch should be within
	// a couple of mA of truth.
	if math.Abs(r.CurrentAmps-5.0) > 0.005 {
		t.Fatalf("noisy current = %v, want ~5.0", r.CurrentAmps)
	}
}

// Property: for in-range DC inputs the full pipeline recovers the input
// to within one current LSB plus shunt-quantization error.
func TestPipelineAccuracyProperty(t *testing.T) {
	f := func(ma uint16) bool {
		amps := float64(ma%30000) / 1000 // 0..30 A, inside 40.96 A full scale at 2 mΩ
		d, err := New(Config{Label: "p", ShuntOhms: 0.002, CurrentLSB: 1e-3,
			Probe: fixedProbe(amps, 0.85)})
		if err != nil {
			return false
		}
		run(d, 35*time.Millisecond)
		return math.Abs(d.Read().CurrentAmps-amps) <= 2e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: power register never exceeds current*bus/20000 pipeline value
// computed in floating point by more than rounding.
func TestPowerConsistencyProperty(t *testing.T) {
	f := func(ma uint16, mv uint16) bool {
		amps := float64(ma%20000) / 1000
		volts := 0.7 + float64(mv%200)/1000 // 0.7..0.9 V
		d, err := New(Config{Label: "p", ShuntOhms: 0.002, CurrentLSB: 1e-3,
			Probe: fixedProbe(amps, volts)})
		if err != nil {
			return false
		}
		run(d, 35*time.Millisecond)
		r := d.Read()
		truth := amps * volts
		// Power is truncated to 25 mW steps; allow one step plus the
		// current/bus quantization slack.
		return r.PowerWatts <= truth+0.05 && r.PowerWatts >= truth-0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
