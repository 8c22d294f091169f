package ampere

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
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

// TestServeObsEndpoints starts the observability server via the public
// API and round-trips the JSON snapshot endpoint.
func TestServeObsEndpoints(t *testing.T) {
	bound, shutdown, err := ServeObs(context.Background(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	resp, err := http.Get("http://" + bound + "/metrics/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status = %d", resp.StatusCode)
	}
	var snap ObsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("snapshot decode: %v", err)
	}
	if snap.TakenAt.IsZero() {
		t.Fatal("snapshot missing timestamp")
	}

	pprof, err := http.Get("http://" + bound + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pprof.Body.Close()
	if pprof.StatusCode != http.StatusOK {
		t.Fatalf("pprof status = %d", pprof.StatusCode)
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
