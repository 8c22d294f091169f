package export

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

// tickClock is a SimClock advancing a fixed amount per Now call.
type tickClock struct {
	now  time.Duration
	step time.Duration
}

func (c *tickClock) Now() time.Duration {
	c.now += c.step
	return c.now
}

func populated(t *testing.T) *obs.Registry {
	t.Helper()
	r := obs.NewRegistry()
	clock := &tickClock{step: 5 * time.Millisecond}
	for i := 0; i < 3; i++ {
		s := r.StartSpan("phase.alpha", clock)
		s.End()
	}
	s := r.StartSpan("phase.beta", nil) // wall-only span
	s.End()
	return r
}

func TestBuildTracksAndRows(t *testing.T) {
	f := Build(populated(t).Snapshot())
	if f.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}
	var wallSpans, simSpans, meta int
	pids := map[int]bool{}
	for _, e := range f.TraceEvents {
		pids[e.Pid] = true
		switch {
		case e.Ph == "M":
			meta++
		case e.Ph == "X" && e.Pid == PidWall:
			wallSpans++
		case e.Ph == "X" && e.Pid == PidSim:
			simSpans++
		}
	}
	if wallSpans != 4 {
		t.Errorf("wall spans = %d, want 4", wallSpans)
	}
	if simSpans != 3 {
		t.Errorf("sim spans = %d, want 3 (beta has no clock)", simSpans)
	}
	if !pids[PidWall] || !pids[PidSim] {
		t.Errorf("expected both wall and sim tracks, got pids %v", pids)
	}
	if meta == 0 {
		t.Error("no metadata (process/thread name) events")
	}
}

func TestRoundTripValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, populated(t).Snapshot()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := Validate(buf.Bytes()); err != nil {
		t.Fatalf("exported trace failed validation: %v", err)
	}
	// The document must also be plain JSON a viewer can parse generically.
	var generic map[string]any
	if err := json.Unmarshal(buf.Bytes(), &generic); err != nil {
		t.Fatalf("not generic JSON: %v", err)
	}
	if _, ok := generic["traceEvents"]; !ok {
		t.Fatal("missing traceEvents key")
	}
}

func TestWriteFileAndValidateFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteFile(path, populated(t).Snapshot()); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if err := ValidateFile(path); err != nil {
		t.Fatalf("ValidateFile: %v", err)
	}
}

func TestValidateRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":      "][",
		"no events key": `{"displayTimeUnit":"ms"}`,
		"bad phase":     `{"traceEvents":[{"name":"x","ph":"?","ts":0,"pid":1,"tid":1}]}`,
		"negative ts":   `{"traceEvents":[{"name":"x","ph":"X","ts":-5,"dur":1,"pid":1,"tid":1}]}`,
		"negative dur":  `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":-1,"pid":1,"tid":1}]}`,
		"unnamed":       `{"traceEvents":[{"ph":"i","ts":0,"pid":1,"tid":0,"s":"p"}]}`,
	}
	for name, data := range cases {
		if err := Validate([]byte(data)); err == nil {
			t.Errorf("%s: validated but should not", name)
		}
	}
	if err := Validate([]byte(`[{"name":"x","ph":"B","ts":1,"pid":1,"tid":1},{"name":"x","ph":"E","ts":2,"pid":1,"tid":1}]`)); err != nil {
		t.Errorf("array form rejected: %v", err)
	}
}

func TestSimSkewVisible(t *testing.T) {
	// A span whose sim duration differs from its wall duration must land
	// with different extents on the two tracks.
	r := obs.NewRegistry()
	clock := &tickClock{step: 250 * time.Millisecond}
	s := r.StartSpan("skewed", clock)
	s.End()
	f := Build(r.Snapshot())
	var wallDur, simDur float64
	for _, e := range f.TraceEvents {
		if e.Ph != "X" || e.Name != "skewed" {
			continue
		}
		if e.Pid == PidWall {
			wallDur = e.Dur
		} else {
			simDur = e.Dur
		}
	}
	if simDur != usec(250*time.Millisecond) {
		t.Errorf("sim dur = %g µs, want %g", simDur, usec(250*time.Millisecond))
	}
	if wallDur >= simDur {
		t.Errorf("wall dur %g µs not smaller than sim dur %g µs — skew not visible", wallDur, simDur)
	}
}
