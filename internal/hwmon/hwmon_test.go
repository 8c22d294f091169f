package hwmon

import (
	"errors"
	"io/fs"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ina226"
	"repro/internal/sysfs"
)

// mkSensor returns an INA226 with a latched reading of the given current
// and bus voltage.
func mkSensor(t *testing.T, label string, amps, volts float64) *ina226.Device {
	t.Helper()
	dev, err := ina226.New(ina226.Config{
		Label:      label,
		ShuntOhms:  0.002,
		CurrentLSB: 1e-3,
		Probe: ina226.Probe{
			CurrentAmps: func() float64 { return amps },
			BusVolts:    func() float64 { return volts },
		},
	})
	if err != nil {
		t.Fatalf("ina226.New: %v", err)
	}
	const dt = 100 * time.Microsecond
	for now := time.Duration(0); now < 35*time.Millisecond; now += dt {
		dev.Step(now, dt)
	}
	return dev
}

func mkSubsystem(t *testing.T) (*Subsystem, *sysfs.FS) {
	t.Helper()
	tree := sysfs.New()
	sub, err := New(tree)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sub, tree
}

func TestNewNilFS(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil sysfs accepted")
	}
}

func TestRegisterLaysOutTree(t *testing.T) {
	sub, tree := mkSubsystem(t)
	e, err := sub.Register(mkSensor(t, "ina226_u79", 6, 0.85))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if e.Index != 0 || e.Dir != "class/hwmon/hwmon0" {
		t.Fatalf("entry = %+v", e)
	}
	for _, a := range []string{"name", "label", "curr1_input", "in1_input",
		"power1_input", "shunt_resistor", "update_interval"} {
		if !tree.Exists(e.Attr(a)) {
			t.Errorf("missing attribute %s", a)
		}
	}
}

func TestUnitsMatchHwmonABI(t *testing.T) {
	sub, tree := mkSubsystem(t)
	e, err := sub.Register(mkSensor(t, "ina226_u79", 6, 0.85))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	read := func(attr string) string {
		t.Helper()
		v, err := tree.ReadFile(sysfs.Nobody, e.Attr(attr))
		if err != nil {
			t.Fatalf("read %s: %v", attr, err)
		}
		return strings.TrimSpace(v)
	}
	if got := read("curr1_input"); got != "6000" { // 6 A -> 6000 mA
		t.Errorf("curr1_input = %s, want 6000", got)
	}
	if got := read("in1_input"); got != "850" { // 0.85 V -> 850 mV
		t.Errorf("in1_input = %s, want 850", got)
	}
	if got := read("power1_input"); got != "5100000" { // 5.1 W -> 5.1e6 uW
		t.Errorf("power1_input = %s, want 5100000", got)
	}
	if got := read("shunt_resistor"); got != "2000" { // 2 mOhm -> 2000 uOhm
		t.Errorf("shunt_resistor = %s, want 2000", got)
	}
	if got := read("name"); got != "ina226" {
		t.Errorf("name = %s", got)
	}
	if got := read("label"); got != "ina226_u79" {
		t.Errorf("label = %s", got)
	}
	if got := read("update_interval"); got != "35" {
		t.Errorf("update_interval = %s, want 35", got)
	}
}

func TestRegisterErrors(t *testing.T) {
	sub, _ := mkSubsystem(t)
	if _, err := sub.Register(nil); err == nil {
		t.Fatal("nil device accepted")
	}
	dev := mkSensor(t, "dup", 1, 1)
	if _, err := sub.Register(dev); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := sub.Register(mkSensor(t, "dup", 1, 1)); err == nil {
		t.Fatal("duplicate label accepted")
	}
}

func TestIndicesIncrement(t *testing.T) {
	sub, _ := mkSubsystem(t)
	for i, label := range []string{"a", "b", "c"} {
		e, err := sub.Register(mkSensor(t, label, 1, 1))
		if err != nil {
			t.Fatalf("Register %s: %v", label, err)
		}
		if e.Index != i {
			t.Fatalf("Index = %d, want %d", e.Index, i)
		}
	}
	if len(sub.Entries()) != 3 {
		t.Fatalf("Entries = %d", len(sub.Entries()))
	}
	if e, ok := sub.ByLabel("b"); !ok || e.Index != 1 {
		t.Fatalf("ByLabel(b) = %+v, %v", e, ok)
	}
	if _, ok := sub.ByLabel("zz"); ok {
		t.Fatal("ByLabel false positive")
	}
}

func TestUpdateIntervalRootGate(t *testing.T) {
	sub, tree := mkSubsystem(t)
	dev := mkSensor(t, "ina226_u79", 1, 1)
	e, err := sub.Register(dev)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	p := e.Attr("update_interval")
	// Unprivileged write must be refused — the attack is pinned to 35 ms.
	if err := tree.WriteFile(sysfs.Nobody, p, "2"); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("nobody write err = %v, want ErrPermission", err)
	}
	if dev.UpdateInterval() != 35*time.Millisecond {
		t.Fatal("interval changed by unprivileged write")
	}
	// Root can retune.
	if err := tree.WriteFile(sysfs.Root, p, "2\n"); err != nil {
		t.Fatalf("root write: %v", err)
	}
	if dev.UpdateInterval() != 2*time.Millisecond {
		t.Fatalf("interval = %v, want 2ms", dev.UpdateInterval())
	}
	// Out-of-range and garbage writes are rejected by the device/parse.
	if err := tree.WriteFile(sysfs.Root, p, "1"); err == nil {
		t.Fatal("1ms accepted")
	}
	if err := tree.WriteFile(sysfs.Root, p, "abc"); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestRestrictToRoot(t *testing.T) {
	sub, tree := mkSubsystem(t)
	e, err := sub.Register(mkSensor(t, "ina226_u79", 6, 0.85))
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := sub.RestrictToRoot("ina226_u79"); err != nil {
		t.Fatalf("RestrictToRoot: %v", err)
	}
	for _, a := range ValueAttrs {
		if _, err := tree.ReadFile(sysfs.Nobody, e.Attr(a)); !errors.Is(err, fs.ErrPermission) {
			t.Errorf("%s readable by nobody after mitigation (err=%v)", a, err)
		}
		if _, err := tree.ReadFile(sysfs.Root, e.Attr(a)); err != nil {
			t.Errorf("%s unreadable by root: %v", a, err)
		}
	}
	// Non-value attributes stay readable (benign monitoring of metadata).
	if _, err := tree.ReadFile(sysfs.Nobody, e.Attr("name")); err != nil {
		t.Errorf("name attr restricted too: %v", err)
	}
	if err := sub.RestrictToRoot("missing"); err == nil {
		t.Fatal("unknown label accepted")
	}
}

func TestRestrictAllToRoot(t *testing.T) {
	sub, tree := mkSubsystem(t)
	for _, l := range []string{"a", "b"} {
		if _, err := sub.Register(mkSensor(t, l, 1, 1)); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	if err := sub.RestrictAllToRoot(); err != nil {
		t.Fatalf("RestrictAllToRoot: %v", err)
	}
	for _, e := range sub.Entries() {
		if _, err := tree.ReadFile(sysfs.Nobody, e.Attr("curr1_input")); !errors.Is(err, fs.ErrPermission) {
			t.Errorf("%s still readable", e.Label)
		}
	}
}

func TestDiscoveryViaGlob(t *testing.T) {
	sub, tree := mkSubsystem(t)
	for _, l := range []string{"u76", "u77", "u79", "u93"} {
		if _, err := sub.Register(mkSensor(t, l, 1, 1)); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	matches, err := fs.Glob(tree.As(sysfs.Nobody), ClassDir+"/hwmon*/curr1_input")
	if err != nil {
		t.Fatalf("Glob: %v", err)
	}
	if len(matches) != 4 {
		t.Fatalf("Glob matches = %v", matches)
	}
}

func TestNegativeFormatting(t *testing.T) {
	if got := formatMilli(-0.0015); strings.TrimSpace(got) != "-2" {
		t.Fatalf("formatMilli(-0.0015) = %q, want -2", got)
	}
	if got := formatMicro(1.2345678); strings.TrimSpace(got) != "1234568" {
		t.Fatalf("formatMicro = %q", got)
	}
}

// TestCachedIntMatchesFormatting reads one value attribute from several
// goroutines at once over a value that changes on every read, so the
// renderings fill several of the shared chunks concurrently. Each
// read must return a well-formed rendering of a value newer than the
// one its goroutine read before. Run it under -race.
func TestCachedIntMatchesFormatting(t *testing.T) {
	const workers, reads = 4, 2 * slabChunk
	var next atomic.Int64
	show := cachedMilli(func() float64 { return float64(next.Add(1)-workers*reads/2) / 1e3 })
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(math.MinInt64)
			for range reads {
				got, err := show()
				n, perr := strconv.ParseInt(strings.TrimSuffix(got, "\n"), 10, 64)
				if err != nil || perr != nil || got != formatMilli(float64(n)/1e3) || n <= last {
					t.Errorf("read %q, %v after %d; want the rendering of a later value", got, err, last)
					return
				}
				last = n
			}
		}()
	}
	wg.Wait()
}
