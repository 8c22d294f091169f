package virus

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fabric"
)

func TestDefaults(t *testing.T) {
	a, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if a.Groups() != 160 {
		t.Fatalf("Groups = %d, want 160", a.Groups())
	}
	if a.Instances() != 160000 {
		t.Fatalf("Instances = %d, want 160000", a.Instances())
	}
	if a.ActiveGroups() != 0 || a.ActiveElements() != 0 {
		t.Fatal("new array should be inactive")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Groups: -1}); err == nil {
		t.Fatal("negative groups accepted")
	}
	if _, err := New(Config{InstancesPerGroup: -1}); err == nil {
		t.Fatal("negative instances accepted")
	}
	if _, err := New(Config{TogglesPerInstance: -1}); err == nil {
		t.Fatal("negative toggles accepted")
	}
}

func TestSetActiveGroups(t *testing.T) {
	a, _ := New(Config{})
	if err := a.SetActiveGroups(40); err != nil {
		t.Fatalf("SetActiveGroups: %v", err)
	}
	if a.ActiveGroups() != 40 {
		t.Fatalf("ActiveGroups = %d", a.ActiveGroups())
	}
	if a.ActiveElements() != 40000 {
		t.Fatalf("ActiveElements = %v, want 40000", a.ActiveElements())
	}
	if err := a.SetActiveGroups(-1); err == nil {
		t.Fatal("negative accepted")
	}
	if err := a.SetActiveGroups(161); err == nil {
		t.Fatal("overflow accepted")
	}
	if err := a.SetActiveGroups(160); err != nil {
		t.Fatalf("full activation rejected: %v", err)
	}
}

func TestUtilizationFitsZU9EG(t *testing.T) {
	a, _ := New(Config{})
	u := a.Utilization()
	if u.LUTs != 160000 || u.FFs != 160000 {
		t.Fatalf("Utilization = %+v", u)
	}
	if !u.Fits(fabric.ZU9EG().Total) {
		t.Fatal("default virus does not fit the ZCU102 device")
	}
}

func TestDeploy(t *testing.T) {
	f, err := fabric.New(fabric.Config{
		Device:        fabric.ZU9EG(),
		CapPerElement: 1e-13,
		Voltage:       func() float64 { return 0.85 },
	})
	if err != nil {
		t.Fatalf("fabric.New: %v", err)
	}
	a, _ := New(Config{})
	if err := a.Deploy(f); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if f.Circuits() != 1 {
		t.Fatal("array not placed")
	}
	// Activity flows through the fabric.
	if err := a.SetActiveGroups(10); err != nil {
		t.Fatal(err)
	}
	f.Step(0, time.Millisecond)
	if f.TotalActivity() != 10000 {
		t.Fatalf("fabric activity = %v, want 10000", f.TotalActivity())
	}
	// Activity is conserved across the spread placement.
	sum := 0.0
	m := f.RegionMap()
	for _, r := range f.SpreadEvenly() {
		sum += m[r.Row][r.Col]
	}
	if sum < 9999 || sum > 10001 {
		t.Fatalf("regional activity sum = %v", sum)
	}
}

func TestTogglesPerInstanceScaling(t *testing.T) {
	a, err := New(Config{Groups: 2, InstancesPerGroup: 10, TogglesPerInstance: 2.5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := a.SetActiveGroups(2); err != nil {
		t.Fatal(err)
	}
	if a.ActiveElements() != 50 {
		t.Fatalf("ActiveElements = %v, want 50", a.ActiveElements())
	}
}

// Property: activity is exactly linear in the activation level.
func TestActivityLinearityProperty(t *testing.T) {
	a, _ := New(Config{})
	f := func(n uint8) bool {
		level := int(n) % 161
		if err := a.SetActiveGroups(level); err != nil {
			return false
		}
		return a.ActiveElements() == float64(level*1000)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
