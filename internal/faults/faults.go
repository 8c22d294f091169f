// Package faults is the seeded fault-injection subsystem for the
// simulated sensor stack. It models the failure modes a real attacker
// meets when sampling hwmon on a busy, flaky board — transient sysfs
// read errors, stale or corrupted INA226 conversions, scheduler jitter
// and dropouts in the sampling loop, hwmon hotplug renumbering, and
// voltage-regulator transients — so the robustness of the attack
// pipeline can be measured instead of assumed.
//
// Every fault decision is drawn from a named stream of the simulation
// engine's deterministic RNG (seed ^ FNV-1a(name), the same derivation
// internal/runner uses for shard seeds). Streams are named per
// injection site (per sysfs path, per sensor label, per sampler key,
// per rail), never shared, so the fault sequence a given site sees is
// a pure function of the root seed and the site name — bit-identical
// under replay and under any -parallel worker count, regardless of map
// iteration or goroutine order elsewhere.
package faults

import (
	"fmt"
	"sort"
	"strings"
)

// Profile describes one composable fault mix. All *Rate fields in
// [0,1] are per-event probabilities (per read, per latch, per due
// sample); HotplugRate and RegTransientRate are expected events per
// simulated second. The zero Profile injects nothing.
type Profile struct {
	// Name identifies the profile in CLI flags and reports.
	Name string

	// SysfsErrorRate is the probability that any one sysfs ReadFile of
	// a monitored attribute fails transiently.
	SysfsErrorRate float64
	// SysfsEIORatio is the fraction of those failures that are EIO;
	// the rest are EAGAIN.
	SysfsEIORatio float64

	// StaleRate is the probability that an INA226 conversion latch is
	// skipped, leaving the registers stale for another whole interval.
	StaleRate float64
	// BitFlipRate is the probability that a latch lands with one bit
	// flipped in one of the result registers.
	BitFlipRate float64

	// JitterRate is the probability that a due sample is delayed by
	// scheduler preemption; JitterFrac caps the delay as a fraction of
	// the sampling interval.
	JitterRate float64
	JitterFrac float64
	// DropoutRate is the probability that a due sample starts a
	// dropout burst (the sampling task descheduled outright); burst
	// lengths are uniform in [1, DropoutLen].
	DropoutRate float64
	DropoutLen  int

	// HotplugRate is the expected number of hwmon renumber events per
	// simulated second.
	HotplugRate float64

	// RegTransientRate is the expected number of regulator output
	// transients per simulated second; RegTransientVolts bounds their
	// peak amplitude.
	RegTransientRate  float64
	RegTransientVolts float64
}

// Enabled reports whether the profile injects any fault at all.
func (p Profile) Enabled() bool {
	return p.SysfsErrorRate > 0 || p.StaleRate > 0 || p.BitFlipRate > 0 ||
		p.JitterRate > 0 || p.DropoutRate > 0 || p.HotplugRate > 0 ||
		p.RegTransientRate > 0
}

// Scale returns the profile with every rate multiplied by intensity
// (probabilities clamped to [0,1]); ratios, amplitudes, and burst
// lengths are unchanged. Intensity 0 disables everything; 1 is the
// profile as defined; >1 stress-tests beyond it.
func (p Profile) Scale(intensity float64) (Profile, error) {
	if intensity < 0 {
		return Profile{}, fmt.Errorf("faults: negative intensity %v", intensity)
	}
	clamp01 := func(v float64) float64 {
		if v > 1 {
			return 1
		}
		return v
	}
	p.SysfsErrorRate = clamp01(p.SysfsErrorRate * intensity)
	p.StaleRate = clamp01(p.StaleRate * intensity)
	p.BitFlipRate = clamp01(p.BitFlipRate * intensity)
	p.JitterRate = clamp01(p.JitterRate * intensity)
	p.DropoutRate = clamp01(p.DropoutRate * intensity)
	p.HotplugRate *= intensity
	p.RegTransientRate *= intensity
	return p, nil
}

// presets are the named fault mixes exposed through the -faults flag.
// Rates are tuned so that at intensity 1 every profile leaves the
// attack degraded but working (nonzero accuracy), per the robustness
// acceptance bar.
var presets = map[string]Profile{
	"none": {Name: "none"},
	"flaky-sysfs": {
		Name:           "flaky-sysfs",
		SysfsErrorRate: 0.05,
		SysfsEIORatio:  0.2,
	},
	"stale-sensor": {
		Name:        "stale-sensor",
		StaleRate:   0.15,
		BitFlipRate: 0.01,
	},
	"noisy-sched": {
		Name:        "noisy-sched",
		JitterRate:  0.20,
		JitterFrac:  0.5,
		DropoutRate: 0.01,
		DropoutLen:  4,
	},
	"hostile": {
		Name:              "hostile",
		SysfsErrorRate:    0.05,
		SysfsEIORatio:     0.2,
		StaleRate:         0.10,
		BitFlipRate:       0.005,
		JitterRate:        0.15,
		JitterFrac:        0.5,
		DropoutRate:       0.01,
		DropoutLen:        4,
		HotplugRate:       0.2,
		RegTransientRate:  2,
		RegTransientVolts: 0.03,
	},
}

// Preset returns the named fault profile.
func Preset(name string) (Profile, error) {
	p, ok := presets[name]
	if !ok {
		return Profile{}, fmt.Errorf("faults: unknown profile %q (have %s)",
			name, strings.Join(PresetNames(), ", "))
	}
	return p, nil
}

// Resolve returns the named preset scaled by intensity, or nil when
// the result injects no fault at all (the "none" preset, or intensity
// 0). Every fault profile the CLI runs is resolved by this one rule.
func Resolve(name string, intensity float64) (*Profile, error) {
	p, err := Preset(name)
	if err != nil {
		return nil, err
	}
	if p, err = p.Scale(intensity); err != nil {
		return nil, err
	}
	if !p.Enabled() {
		return nil, nil
	}
	return &p, nil
}

// PresetNames returns the preset names in lexical order.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
