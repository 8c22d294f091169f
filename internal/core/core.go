// Package core implements the AmpereBleed attack itself: unprivileged,
// circuit-free power side-channel measurement of ARM-FPGA SoCs through
// the hwmon interface of the boards' INA226 sensors, and the three
// end-to-end analyses of the paper's evaluation —
//
//   - characterization of the current/voltage/power channels against a
//     161-level power-virus victim, with the ring-oscillator baseline
//     (Fig. 2),
//   - DPU accelerator fingerprinting with a random forest over 39 DNN
//     architectures (Fig. 3, Table III), and
//   - Hamming-weight recovery from an RSA-1024 circuit (Fig. 4).
//
// Everything the attacker does goes through the simulated sysfs as an
// unprivileged user (sysfs.Nobody): discovery via directory listing,
// measurement via world-readable attribute reads. The victim side
// (bitstream deployment, model loading) is driven separately, exactly as
// the threat model separates the two parties.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/hwmon"
	"repro/internal/sysfs"
	"repro/internal/trace"
)

// Kind selects which of a sensor's three measurements to sample.
type Kind string

// The INA226's three measurement channels.
const (
	Current Kind = "current"
	Voltage Kind = "voltage"
	Power   Kind = "power"
)

// attr returns the hwmon attribute file and its scale to base units.
func (k Kind) attr() (name string, scale float64, err error) {
	switch k {
	case Current:
		return "curr1_input", 1e-3, nil // mA
	case Voltage:
		return "in1_input", 1e-3, nil // mV
	case Power:
		return "power1_input", 1e-6, nil // µW
	default:
		return "", 0, fmt.Errorf("core: unknown measurement kind %q", k)
	}
}

// Channel identifies one side-channel source: a sensor and a kind.
type Channel struct {
	// Label is the sensor's board designator, e.g. "ina226_u79".
	Label string
	// Kind is the measurement to read.
	Kind Kind
}

// String renders the channel like the paper's table rows, e.g.
// "Current (ina226_u79)".
func (c Channel) String() string {
	k := string(c.Kind)
	if k != "" {
		k = strings.ToUpper(k[:1]) + k[1:]
	}
	return fmt.Sprintf("%s (%s)", k, c.Label)
}

// SensorInfo describes a discovered hwmon sensor.
type SensorInfo struct {
	// Dir is the sysfs directory, e.g. "class/hwmon/hwmon3".
	Dir string
	// Name is the driver name attribute ("ina226").
	Name string
	// Label is the board designator.
	Label string
}

// Attacker is the unprivileged measurement side of AmpereBleed.
type Attacker struct {
	fs   *sysfs.FS
	cred sysfs.Cred
}

// NewAttacker returns an attacker reading the given sysfs tree with the
// given credential (normally sysfs.Nobody — using Root would defeat the
// point of the exercise).
func NewAttacker(fs *sysfs.FS, cred sysfs.Cred) (*Attacker, error) {
	if fs == nil {
		return nil, errors.New("core: nil sysfs")
	}
	return &Attacker{fs: fs, cred: cred}, nil
}

// Discover lists the INA226 sensors visible through hwmon, in numeric
// hwmon<N> order — the attacker's reconnaissance step. Nothing is
// cached: every call lists the class directory and reads each entry's
// name and label attributes afresh, so a hotplug renumber between calls
// is always seen.
func (a *Attacker) Discover() ([]SensorInfo, error) {
	names, err := a.fs.ReadDir(hwmon.ClassDir)
	if err != nil {
		return nil, err
	}
	type entry struct {
		index int
		name  string
	}
	dirs := make([]entry, len(names))
	for i, d := range names {
		dirs[i] = entry{hwmonIndex(d), d}
	}
	sort.Slice(dirs, func(i, j int) bool { return dirs[i].index < dirs[j].index })
	var out []SensorInfo
	for _, d := range dirs {
		dir := hwmon.ClassDir + "/" + d.name
		name, err := a.fs.ReadFile(a.cred, dir+"/name")
		if err != nil {
			continue // not readable or not a sensor dir
		}
		if strings.TrimSpace(name) != hwmon.DriverName {
			continue
		}
		label, err := a.fs.ReadFile(a.cred, dir+"/label")
		if err != nil {
			continue
		}
		out = append(out, SensorInfo{
			Dir:   dir,
			Name:  strings.TrimSpace(name),
			Label: strings.TrimSpace(label),
		})
	}
	return out, nil
}

// hwmonIndex returns N of a "hwmon<N>" directory name, and 0 for any
// other name.
func hwmonIndex(name string) int {
	digits, ok := strings.CutPrefix(name, "hwmon")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(digits)
	if err != nil {
		return 0
	}
	return n
}

// Probe returns a read function for one channel, resolved through
// discovery. The returned probe performs a fresh unprivileged file read
// on every call.
func (a *Attacker) Probe(ch Channel) (func() (float64, error), error) {
	sensors, err := a.Discover()
	if err != nil {
		return nil, err
	}
	for _, s := range sensors {
		if s.Label == ch.Label {
			attr, scale, err := ch.Kind.attr()
			if err != nil {
				return nil, err
			}
			return trace.SysfsProbe(a.fs, a.cred, s.Dir+"/"+attr, scale), nil
		}
	}
	return nil, fmt.Errorf("core: no sensor labelled %q", ch.Label)
}

// resolver returns the hardened read path's re-resolver for ch: a fresh
// discovery of its probe after a hotplug renumber.
func (a *Attacker) resolver(ch Channel) func() (func() (float64, error), error) {
	return func() (func() (float64, error), error) { return a.Probe(ch) }
}

// NewRecorder builds a trace recorder polling the channel every
// interval. Register it with the simulation engine to start sampling.
func (a *Attacker) NewRecorder(ch Channel, interval time.Duration) (*trace.Recorder, error) {
	probe, err := a.Probe(ch)
	if err != nil {
		return nil, err
	}
	return trace.NewRecorder(interval, probe)
}
