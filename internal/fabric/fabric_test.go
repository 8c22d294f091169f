package fabric

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// stubCircuit is a minimal Circuit for tests.
type stubCircuit struct {
	name   string
	util   Resources
	active float64
	steps  int
}

func (s *stubCircuit) CircuitName() string    { return s.name }
func (s *stubCircuit) Utilization() Resources { return s.util }
func (s *stubCircuit) Step(now, dt time.Duration) {
	s.steps++
}
func (s *stubCircuit) ActiveElements() float64 { return s.active }

func newTestFabric(t *testing.T) *Fabric {
	t.Helper()
	f, err := New(Config{
		Device:        ZU9EG(),
		CapPerElement: 1e-13,
		Voltage:       func() float64 { return 0.85 },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f
}

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{1, 2, 3, 4}
	b := Resources{10, 20, 30, 40}
	sum := a.Add(b)
	if sum != (Resources{11, 22, 33, 44}) {
		t.Fatalf("Add = %+v", sum)
	}
	if !a.Fits(b) {
		t.Fatal("small should fit in large")
	}
	if b.Fits(a) {
		t.Fatal("large should not fit in small")
	}
	if a.String() == "" {
		t.Fatal("empty String")
	}
}

func TestZU9EGMatchesPaper(t *testing.T) {
	d := ZU9EG()
	if d.Total.LUTs != 274080 {
		t.Fatalf("LUTs = %d, want 274080", d.Total.LUTs)
	}
	if d.Total.FFs != 548160 {
		t.Fatalf("FFs = %d, want 548160", d.Total.FFs)
	}
	if d.Total.DSPs != 2520 {
		t.Fatalf("DSPs = %d, want 2520", d.Total.DSPs)
	}
	if d.ClockHz != 300e6 {
		t.Fatalf("ClockHz = %v, want 300e6", d.ClockHz)
	}
}

func TestNewValidation(t *testing.T) {
	good := Config{Device: ZU9EG(), CapPerElement: 1e-13, Voltage: func() float64 { return 1 }}
	cases := []func(Config) Config{
		func(c Config) Config { c.Device.Name = ""; return c },
		func(c Config) Config { c.Device.Total.LUTs = 0; return c },
		func(c Config) Config { c.Device.ClockHz = 0; return c },
		func(c Config) Config { c.Device.Rows = 0; return c },
		func(c Config) Config { c.CapPerElement = 0; return c },
		func(c Config) Config { c.Voltage = nil; return c },
	}
	for i, mutate := range cases {
		if _, err := New(mutate(good)); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestPlaceAccounting(t *testing.T) {
	f := newTestFabric(t)
	c := &stubCircuit{name: "a", util: Resources{LUTs: 1000, FFs: 2000}}
	if err := f.Place(c, []Region{{0, 0}}); err != nil {
		t.Fatalf("Place: %v", err)
	}
	if f.Used().LUTs != 1000 || f.Used().FFs != 2000 {
		t.Fatalf("Used = %+v", f.Used())
	}
	free := f.Free()
	if free.LUTs != 274080-1000 {
		t.Fatalf("Free.LUTs = %d", free.LUTs)
	}
	if f.Circuits() != 1 {
		t.Fatalf("Circuits = %d", f.Circuits())
	}
}

func TestPlaceErrors(t *testing.T) {
	f := newTestFabric(t)
	if err := f.Place(nil, []Region{{0, 0}}); err == nil {
		t.Fatal("nil circuit accepted")
	}
	c := &stubCircuit{name: "a"}
	if err := f.Place(c, nil); err == nil {
		t.Fatal("empty region list accepted")
	}
	if err := f.Place(c, []Region{{99, 0}}); err == nil {
		t.Fatal("out-of-grid region accepted")
	}
	f.MustPlace(c, []Region{{0, 0}})
	if err := f.Place(c, []Region{{0, 1}}); err == nil {
		t.Fatal("double placement accepted")
	}
	huge := &stubCircuit{name: "huge", util: Resources{LUTs: 999999999}}
	if err := f.Place(huge, []Region{{0, 0}}); err == nil {
		t.Fatal("oversized circuit accepted")
	}
}

func TestMustPlacePanics(t *testing.T) {
	f := newTestFabric(t)
	defer func() {
		if recover() == nil {
			t.Fatal("MustPlace(nil) did not panic")
		}
	}()
	f.MustPlace(nil, []Region{{0, 0}})
}

func TestStepAggregatesActivityAndCurrent(t *testing.T) {
	f := newTestFabric(t)
	a := &stubCircuit{name: "a", active: 1000}
	b := &stubCircuit{name: "b", active: 500}
	f.MustPlace(a, []Region{{0, 0}})
	f.MustPlace(b, []Region{{1, 1}, {1, 2}})
	f.Step(0, time.Millisecond)
	if a.steps != 1 || b.steps != 1 {
		t.Fatal("circuits not stepped")
	}
	if f.TotalActivity() != 1500 {
		t.Fatalf("TotalActivity = %v", f.TotalActivity())
	}
	// I = C*f*V*n = 1e-13 * 3e8 * 0.85 * 1500
	want := 1e-13 * 3e8 * 0.85 * 1500
	if math.Abs(f.Current()-want) > 1e-12 {
		t.Fatalf("Current = %v, want %v", f.Current(), want)
	}
	// Region activity: a fully in (0,0); b split between (1,1) and (1,2).
	m := f.RegionMap()
	if len(m) != f.Device().Rows || len(m[0]) != f.Device().Cols {
		t.Fatalf("region map is %dx%d, want %dx%d", len(m), len(m[0]), f.Device().Rows, f.Device().Cols)
	}
	if m[0][0] != 1000 {
		t.Fatalf("region (0,0) = %v, want 1000", m[0][0])
	}
	if m[1][1] != 250 {
		t.Fatalf("region (1,1) = %v, want 250", m[1][1])
	}
}

func TestRegionActivityResetsEachTick(t *testing.T) {
	f := newTestFabric(t)
	c := &stubCircuit{name: "a", active: 100}
	f.MustPlace(c, []Region{{0, 0}})
	f.Step(0, time.Millisecond)
	if got := f.RegionMap()[0][0]; got != 100 {
		t.Fatalf("region activity %v, want 100", got)
	}
	c.active = 0
	f.Step(0, time.Millisecond)
	if got := f.RegionMap()[0][0]; got != 0 {
		t.Fatalf("stale region activity %v", got)
	}
	if f.Current() != 0 {
		t.Fatalf("stale current %v", f.Current())
	}
}

func TestSpreadEvenly(t *testing.T) {
	f := newTestFabric(t)
	rs := f.SpreadEvenly()
	if len(rs) != f.Device().Rows*f.Device().Cols {
		t.Fatalf("SpreadEvenly len = %d", len(rs))
	}
	seen := map[Region]bool{}
	for _, r := range rs {
		if seen[r] {
			t.Fatalf("duplicate region %+v", r)
		}
		seen[r] = true
	}
}

func TestSourceName(t *testing.T) {
	f := newTestFabric(t)
	if f.SourceName() != "fabric:XCZU9EG" {
		t.Fatalf("SourceName = %q", f.SourceName())
	}
}

// Property: total regional activity equals total activity (conservation),
// for any split of circuits over regions.
func TestActivityConservationProperty(t *testing.T) {
	f := func(n uint8, spread uint8) bool {
		fb, err := New(Config{
			Device:        ZU9EG(),
			CapPerElement: 1e-13,
			Voltage:       func() float64 { return 0.85 },
		})
		if err != nil {
			return false
		}
		regions := fb.SpreadEvenly()
		k := int(spread)%len(regions) + 1
		c := &stubCircuit{name: "c", active: float64(n)}
		if err := fb.Place(c, regions[:k]); err != nil {
			return false
		}
		fb.Step(0, time.Millisecond)
		sum := 0.0
		m := fb.RegionMap()
		for _, r := range regions {
			sum += m[r.Row][r.Col]
		}
		return math.Abs(sum-fb.TotalActivity()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
