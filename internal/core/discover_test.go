package core

import (
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/sysfs"
)

// TestHwmonIndexMatchesSscanf pins hwmonIndex to the fmt.Sscanf
// "hwmon%d" parse it replaced, over every index a board can reach and a
// few names that are not hwmon<N>.
func TestHwmonIndexMatchesSscanf(t *testing.T) {
	names := []string{"hwmon", "hwmonx", "power", "", "hwmon007", "hwmon-3", "hwmon+3"}
	for i := 0; i <= 200; i++ {
		names = append(names, fmt.Sprintf("hwmon%d", i))
	}
	for _, name := range names {
		want := 0
		fmt.Sscanf(name, "hwmon%d", &want)
		if got := hwmonIndex(name); got != want {
			t.Errorf("hwmonIndex(%q) = %d, want %d", name, got, want)
		}
	}
}

// discoverDirs returns the sensor directories of one Discover call.
func discoverDirs(t *testing.T, a *Attacker) []string {
	t.Helper()
	sensors, err := a.Discover()
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	dirs := make([]string, len(sensors))
	for i, s := range sensors {
		dirs[i] = s.Dir
	}
	return dirs
}

// wantDirs returns class/hwmon/hwmon<first> … hwmon<first+n-1>.
func wantDirs(first, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("class/hwmon/hwmon%d", first+i)
	}
	return out
}

func sameDirs(t *testing.T, got, want []string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Discover order:\n got  %v\n want %v", got, want)
	}
}

// TestDiscoverNumericOrder pins discovery to numeric hwmon order
// (hwmon2 before hwmon10, which a lexical listing reverses), also after
// hotplug renumbers push the indices past 18 and across 100.
func TestDiscoverNumericOrder(t *testing.T) {
	b := newBoard(t)
	a, err := NewAttacker(b.Sysfs(), sysfs.Nobody)
	if err != nil {
		t.Fatalf("NewAttacker: %v", err)
	}
	sameDirs(t, discoverDirs(t, a), wantDirs(0, 18))
	for _, shift := range []int{18, 72} {
		if err := b.Hwmon().Renumber(shift); err != nil {
			t.Fatalf("Renumber(%d): %v", shift, err)
		}
	}
	sameDirs(t, discoverDirs(t, a), wantDirs(90, 18))
}

// TestDiscoverReadsEveryNameAndLabel pins discovery's sysfs traffic:
// nothing is cached between calls, so each one reads all 18 name and
// 18 label attributes again.
func TestDiscoverReadsEveryNameAndLabel(t *testing.T) {
	b := newBoard(t)
	a, err := NewAttacker(b.Sysfs(), sysfs.Nobody)
	if err != nil {
		t.Fatalf("NewAttacker: %v", err)
	}
	names, labels := obs.C("sysfs.reads.name"), obs.C("sysfs.reads.label")
	for call := 0; call < 3; call++ {
		n0, l0 := names.Value(), labels.Value()
		discoverDirs(t, a)
		if dn, dl := names.Value()-n0, labels.Value()-l0; dn != 18 || dl != 18 {
			t.Errorf("call %d read %d name and %d label attributes, want 18 and 18", call, dn, dl)
		}
	}
}
