package board

import (
	"testing"
	"time"

	"repro/internal/fabric"
)

func TestWireEveryCatalogBoard(t *testing.T) {
	for _, spec := range Catalog() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			b, err := Wire(spec, Config{Seed: 9})
			if err != nil {
				t.Fatalf("Wire: %v", err)
			}
			if b.SensorCount() != spec.INASensors {
				t.Fatalf("sensors = %d, want %d", b.SensorCount(), spec.INASensors)
			}
			if b.Spec().Name != spec.Name {
				t.Fatalf("Spec = %+v", b.Spec())
			}
			b.Run(100 * time.Millisecond)
			dev, err := b.Sensor(SensorFPGA)
			if err != nil {
				t.Fatalf("Sensor: %v", err)
			}
			r := dev.Read()
			if r.Updates == 0 {
				t.Fatal("FPGA sensor never latched")
			}
			if !spec.VoltageBand.Contains(r.BusVolts) {
				t.Fatalf("VCCINT = %v outside %v band [%v,%v]",
					r.BusVolts, spec.Family, spec.VoltageBand.Min, spec.VoltageBand.Max)
			}
		})
	}
}

// wireByName builds a catalog board by name, Lookup then Wire.
func wireByName(t *testing.T, name string, cfg Config) *SoC {
	t.Helper()
	spec, ok := Lookup(name)
	if !ok {
		t.Fatalf("Lookup(%s): unknown board", name)
	}
	b, err := Wire(spec, cfg)
	if err != nil {
		t.Fatalf("Wire(%s): %v", name, err)
	}
	return b
}

// TestNewByName builds a board by catalog name: the name selects the
// family's FPGA device.
func TestNewByName(t *testing.T) {
	b := wireByName(t, "VCK190", Config{Seed: 1})
	if b.Spec().Family != FamilyVersal {
		t.Fatalf("family = %s", b.Spec().Family)
	}
	if b.Fabric().Device().Name != "XCVC1902" {
		t.Fatalf("device = %s", b.Fabric().Device().Name)
	}
	if _, ok := Lookup("NoSuchBoard"); ok {
		t.Fatal("unknown board found")
	}
}

func TestWireValidation(t *testing.T) {
	if _, err := Wire(Spec{}, Config{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := Wire(Spec{Name: "x", INASensors: 2}, Config{}); err == nil {
		t.Fatal("too few sensors accepted")
	}
	spec, _ := Lookup("ZCU102")
	spec.VoltageBand.Min = 0
	if _, err := Wire(spec, Config{}); err == nil {
		t.Fatal("invalid band accepted")
	}
}

func TestVersalCPUDrawsMore(t *testing.T) {
	us := wireByName(t, "ZCU102", Config{Seed: 5})
	versal := wireByName(t, "VEK280", Config{Seed: 5})
	us.CPUFull().SetUtil(1)
	versal.CPUFull().SetUtil(1)
	us.Run(100 * time.Millisecond)
	versal.Run(100 * time.Millisecond)
	dUS, _ := us.Sensor(SensorCPUFull)
	dV, _ := versal.Sensor(SensorCPUFull)
	if dV.Read().CurrentAmps <= dUS.Read().CurrentAmps {
		t.Fatalf("A72 domain (%v A) should out-draw A53 domain (%v A)",
			dV.Read().CurrentAmps, dUS.Read().CurrentAmps)
	}
}

func TestVersalFabricFitsBiggerVirus(t *testing.T) {
	b := wireByName(t, "VHK158", Config{Seed: 1})
	free := b.Fabric().Free()
	if free.LUTs < 800000 {
		t.Fatalf("Versal free LUTs = %d, want ~900k", free.LUTs)
	}
	// Place a circuit too big for a ZU9EG but fine on Versal.
	big := &bigCircuit{}
	if err := b.Fabric().Place(big, []fabric.Region{{Row: 0, Col: 0}}); err != nil {
		t.Fatalf("Place on Versal: %v", err)
	}
	zcu, _ := NewZCU102(Config{Seed: 1})
	if err := zcu.Fabric().Place(&bigCircuit{}, []fabric.Region{{Row: 0, Col: 0}}); err == nil {
		t.Fatal("500k-LUT circuit fit on a ZU9EG")
	}
}

type bigCircuit struct{}

func (c *bigCircuit) CircuitName() string           { return "big" }
func (c *bigCircuit) Utilization() fabric.Resources { return fabric.Resources{LUTs: 500000} }
func (c *bigCircuit) Step(now, dt time.Duration)    {}
func (c *bigCircuit) ActiveElements() float64       { return 0 }
