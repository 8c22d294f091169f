package ampere

import (
	"bytes"
	"encoding/json"
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

// TestWriteTrace exercises the public trace export: after a run the
// exported timeline must be valid trace-event JSON with events on it.
func TestWriteTrace(t *testing.T) {
	b, err := NewBoard(BoardConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b.Run(100 * time.Millisecond)
	var buf bytes.Buffer
	if err := WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("trace export carries no events")
	}
}
