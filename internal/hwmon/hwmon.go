// Package hwmon models the Linux hardware-monitoring ("hwmon") class
// through which AmpereBleed samples the INA226 sensors.
//
// Each registered sensor appears as class/hwmon/hwmonN in the simulated
// sysfs tree with the standard attribute files and units of the hwmon
// ABI (Documentation/hwmon/sysfs-interface):
//
//	name            driver name ("ina226")
//	label           board designator, e.g. "ina226_u79"
//	curr1_input     current in integer milliamps (world-readable)
//	in1_input       bus voltage in integer millivolts (world-readable)
//	power1_input    power in integer microwatts (world-readable)
//	shunt_resistor  shunt value in microohms (world-readable)
//	update_interval interval in milliseconds (root-writable)
//
// World-readable value attributes plus a root-gated update interval are
// precisely the access-control facts of Sec. III-C: an unprivileged
// process can poll at will but is pinned to the default 35 ms rate.
package hwmon

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/ina226"
	"repro/internal/sysfs"
)

// ClassDir is where the subsystem lives inside the sysfs tree.
const ClassDir = "class/hwmon"

// DriverName is the value of every entry's "name" attribute.
const DriverName = "ina226"

// Entry is one registered sensor.
type Entry struct {
	// Index is N in hwmonN.
	Index int
	// Label is the board designator ("ina226_u76", ...).
	Label string
	// Dir is the sysfs directory of the entry, e.g. "class/hwmon/hwmon0".
	Dir string
	// Device is the underlying sensor model.
	Device *ina226.Device

	// attrs keeps the attribute set so the entry can be re-exposed
	// under a new index after a hotplug/renumber event. The Show/Store
	// closures capture the device, not the path, so they survive moves,
	// and each Mode is the entry's access policy: RestrictToRoot
	// records the mitigation here, so a renumber re-applies it.
	attrs map[string]sysfs.Attr
}

// Attr returns the sysfs path of one of the entry's attribute files.
func (e *Entry) Attr(name string) string { return e.Dir + "/" + name }

// Subsystem registers sensors into a sysfs tree.
type Subsystem struct {
	fs      *sysfs.FS
	entries []*Entry
	byLabel map[string]*Entry
}

// New returns a subsystem rooted in the given tree. The class directory
// is created immediately so discovery of an empty subsystem works.
func New(fs *sysfs.FS) (*Subsystem, error) {
	if fs == nil {
		return nil, errors.New("hwmon: nil sysfs")
	}
	if err := fs.MkdirAll(ClassDir); err != nil {
		return nil, err
	}
	return &Subsystem{fs: fs, byLabel: make(map[string]*Entry)}, nil
}

// FS returns the underlying sysfs tree.
func (s *Subsystem) FS() *sysfs.FS { return s.fs }

// Entries returns all registered entries in registration order.
func (s *Subsystem) Entries() []*Entry { return append([]*Entry(nil), s.entries...) }

// ByLabel returns the entry with the given board designator.
func (s *Subsystem) ByLabel(label string) (*Entry, bool) {
	e, ok := s.byLabel[label]
	return e, ok
}

// Register exposes a sensor as the next hwmonN directory.
func (s *Subsystem) Register(dev *ina226.Device) (*Entry, error) {
	if dev == nil {
		return nil, errors.New("hwmon: nil device")
	}
	label := dev.Label()
	if _, dup := s.byLabel[label]; dup {
		return nil, fmt.Errorf("hwmon: label %q already registered", label)
	}
	e := &Entry{
		Index:  s.freeIndex(),
		Label:  label,
		Device: dev,
	}
	e.Dir = fmt.Sprintf("%s/hwmon%d", ClassDir, e.Index)

	ro := func(show func() (string, error)) sysfs.Attr {
		return sysfs.Attr{Mode: sysfs.ModeRO, Show: show}
	}
	labelStr := label + "\n"
	attrs := map[string]sysfs.Attr{
		"name":  ro(func() (string, error) { return DriverName + "\n", nil }),
		"label": ro(func() (string, error) { return labelStr, nil }),
		// The measurement attributes are the attacker's polling targets;
		// their renderings are cached per latched value (see cachedInt)
		// so steady-state polling does not allocate.
		"curr1_input":  ro(cachedMilli(func() float64 { return dev.Read().CurrentAmps })),
		"in1_input":    ro(cachedMilli(func() float64 { return dev.Read().BusVolts })),
		"power1_input": ro(cachedMicro(func() float64 { return dev.Read().PowerWatts })),
		"shunt_resistor": ro(func() (string, error) {
			return formatMicro(dev.ShuntOhms()), nil
		}),
		"update_interval": {
			Mode: sysfs.ModeRW,
			Show: func() (string, error) {
				ms := dev.UpdateInterval().Milliseconds()
				return strconv.FormatInt(ms, 10) + "\n", nil
			},
			Store: func(v string) error {
				ms, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
				if err != nil {
					return fmt.Errorf("hwmon: bad update_interval %q: %w", v, err)
				}
				return dev.SetUpdateInterval(time.Duration(ms) * time.Millisecond)
			},
		},
	}
	e.attrs = attrs
	for name, a := range attrs {
		if err := s.fs.AddAttr(e.Attr(name), a); err != nil {
			return nil, err
		}
	}
	s.entries = append(s.entries, e)
	s.byLabel[label] = e
	return e, nil
}

// freeIndex is the lowest N no entry holds, the index the kernel's
// hwmon ID allocator hands a newly probed device: 0, 1, 2, ... while
// devices only register, and a gap left by a renumber after one.
func (s *Subsystem) freeIndex() int {
next:
	for n := 0; ; n++ {
		for _, e := range s.entries {
			if e.Index == n {
				continue next
			}
		}
		return n
	}
}

// Renumber simulates a hotplug re-enumeration: every entry's hwmonN
// directory disappears and reappears under an index shifted by n (how
// the kernel renumbers the class when a device resets and re-probes).
// Attribute contents, labels and access policy are unchanged; only the
// paths move, so any reader holding a stale path sees ENOENT until it
// re-discovers. Each attribute is re-added with the entry's recorded
// mode, so a RestrictToRoot survives the re-probe.
func (s *Subsystem) Renumber(n int) error {
	if n < 1 {
		return fmt.Errorf("hwmon: renumber shift %d must be positive", n)
	}
	for _, e := range s.entries {
		if err := s.fs.Remove(e.Dir); err != nil {
			return err
		}
	}
	for _, e := range s.entries {
		e.Index += n
		e.Dir = fmt.Sprintf("%s/hwmon%d", ClassDir, e.Index)
		for name, a := range e.attrs {
			if err := s.fs.AddAttr(e.Attr(name), a); err != nil {
				return err
			}
		}
	}
	return nil
}

// ValueAttrs are the measurement attributes the mitigation locks down.
var ValueAttrs = []string{"curr1_input", "in1_input", "power1_input"}

// RestrictToRoot applies the paper's mitigation (Sec. V) to one sensor:
// its measurement attributes become readable by root only. The mode is
// the entry's policy, as a driver's attribute mode or a udev rule is on
// Linux, not a one-off chmod: every later Renumber re-applies it. The
// policy is recorded even for an attribute missing from the tree, whose
// error is returned joined with any other.
func (s *Subsystem) RestrictToRoot(label string) error {
	e, ok := s.byLabel[label]
	if !ok {
		return fmt.Errorf("hwmon: unknown label %q", label)
	}
	var errs []error
	for _, name := range ValueAttrs {
		a := e.attrs[name]
		a.Mode = sysfs.ModeRootOnly
		e.attrs[name] = a
		if err := s.fs.SetMode(e.Attr(name), sysfs.ModeRootOnly); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// RestrictAllToRoot applies RestrictToRoot to every registered sensor.
func (s *Subsystem) RestrictAllToRoot() error {
	for _, e := range s.entries {
		if err := s.RestrictToRoot(e.Label); err != nil {
			return err
		}
	}
	return nil
}

// formatMilli renders a value in thousandths, as hwmon reports mA and mV.
func formatMilli(v float64) string {
	return strconv.FormatInt(int64(roundHalfAway(v*1e3)), 10) + "\n"
}

// formatMicro renders a value in millionths, as hwmon reports µW and µΩ.
func formatMicro(v float64) string {
	return strconv.FormatInt(int64(roundHalfAway(v*1e6)), 10) + "\n"
}

// rendered is one immutable integer→string rendering, published whole
// through an atomic pointer so concurrent readers always see a
// consistent (value, text) pair.
type rendered struct {
	n int64
	s string
}

// Changed values are rendered into chunks shared by every attribute:
// the texts into a byte chunk, the pairs into a slab, so a change
// allocates only its share of a chunk.
var chunks struct {
	sync.Mutex
	text []byte     // unused tail of the text chunk
	slab []rendered // unused tail of the pair chunk
}

const (
	textChunk = 4096
	slabChunk = 256
)

// render returns a new rendering of n: its decimal digits and a
// newline, cut from the shared chunks.
func render(n int64) *rendered {
	var digits [24]byte
	b := append(strconv.AppendInt(digits[:0], n, 10), '\n')
	chunks.Lock()
	defer chunks.Unlock()
	if len(chunks.text) < len(b) {
		chunks.text = make([]byte, textChunk)
	}
	k := copy(chunks.text, b)
	// The chunk's bytes are written once, here, and never again, so the
	// string may alias them.
	s := unsafe.String(&chunks.text[0], k)
	chunks.text = chunks.text[k:]
	if len(chunks.slab) == 0 {
		chunks.slab = make([]rendered, slabChunk)
	}
	r := &chunks.slab[0]
	chunks.slab = chunks.slab[1:]
	*r = rendered{n: n, s: s}
	return r
}

// cachedInt returns a Show callback rendering scaled(v()) with a
// trailing newline. The INA226 latches registers once per update
// interval (~70 simulation ticks at the default 35 ms), so the dozens
// of polls in between re-read an identical value and return the last
// rendering; a changed value is rendered into the shared chunks
// (render). Steady-state polling therefore does not allocate, and the
// contents are byte-identical to formatting the value afresh.
func cachedInt(v func() float64, scale float64) func() (string, error) {
	var cache atomic.Pointer[rendered]
	return func() (string, error) {
		n := int64(roundHalfAway(v() * scale))
		if c := cache.Load(); c != nil && c.n == n {
			return c.s, nil
		}
		c := render(n)
		cache.Store(c)
		return c.s, nil
	}
}

// cachedMilli is cachedInt in thousandths (mA, mV).
func cachedMilli(v func() float64) func() (string, error) {
	return cachedInt(v, 1e3)
}

// cachedMicro is cachedInt in millionths (µW, µΩ).
func cachedMicro(v func() float64) func() (string, error) {
	return cachedInt(v, 1e6)
}

func roundHalfAway(v float64) float64 {
	if v >= 0 {
		return float64(int64(v + 0.5))
	}
	return float64(int64(v - 0.5))
}
