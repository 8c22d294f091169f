package ampere

import (
	"testing"
	"time"
)

// TestSnapshotAfterRun exercises the public observability API: running a
// board must leave engine and sensor counters in the process snapshot.
func TestSnapshotAfterRun(t *testing.T) {
	b, err := NewBoard(BoardConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := Snapshot()
	b.Run(200 * time.Millisecond)
	after := Snapshot()

	if got := after.Counter("sim.ticks") - before.Counter("sim.ticks"); got <= 0 {
		t.Fatalf("sim.ticks did not advance: delta %d", got)
	}
	if got := after.Counter("ina226.conversions") - before.Counter("ina226.conversions"); got <= 0 {
		t.Fatalf("ina226.conversions did not advance: delta %d", got)
	}

	// An unprivileged read must show up in the sysfs counters.
	atk, err := NewAttacker(b.Sysfs(), Unprivileged)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := atk.Probe(Channel{Label: SensorFPGA, Kind: Current})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := probe(); err != nil {
		t.Fatal(err)
	}
	final := Snapshot()
	if got := final.Counter("sysfs.reads") - after.Counter("sysfs.reads"); got <= 0 {
		t.Fatalf("sysfs.reads did not advance: delta %d", got)
	}
}
