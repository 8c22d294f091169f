// Package export renders an obs registry snapshot as a Chrome
// trace-event JSON document (the "JSON Object Format" understood by
// chrome://tracing, Perfetto's legacy importer, and speedscope).
//
// Two process tracks are emitted: the wall-clock track (pid 1) places
// every retained span at its real start time, and the sim-clock track
// (pid 2) places the spans that carried a simulation clock at their
// simulated start time. Loading the file therefore shows wall-vs-sim
// skew directly: a phase whose wall extent is much longer than its sim
// extent is where the simulator fell behind the hardware it models.
//
// Both CLIs expose it through the global -trace-out flag, and
// ampere.WriteTrace through the public API.
package export

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/obs"
)

// Track pids of the two clock domains.
const (
	PidWall = 1
	PidSim  = 2
)

// Event is one trace event in Chrome's trace-event schema. Only the
// fields this exporter emits are modelled; ts and dur are microseconds,
// per the format.
type Event struct {
	Name string `json:"name"`
	// Cat is the event category ("span").
	Cat string `json:"cat,omitempty"`
	// Ph is the phase: "X" complete or "M" metadata.
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// File is the trace-event JSON Object Format document.
type File struct {
	TraceEvents     []Event           `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// usec converts a duration to trace-event microseconds.
func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// Build converts a snapshot's retained spans into a trace-event
// document. Span rows are grouped by span name (one tid per
// name) so repeated spans of the same operation share a timeline row.
func Build(snap obs.Snapshot) File {
	f := File{
		TraceEvents:     []Event{},
		DisplayTimeUnit: "ms",
		OtherData: map[string]string{
			"generator": "amperebleed internal/obs/export",
			"taken_at":  snap.TakenAt.Format(time.RFC3339Nano),
		},
	}

	// One tid per distinct span name, in sorted order, so row layout is
	// deterministic across exports of the same run.
	names := map[string]bool{}
	anySim := false
	for _, sp := range snap.RecentSpans {
		names[sp.Name] = true
		anySim = anySim || sp.HasSim
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	tids := make(map[string]int, len(sorted))
	for i, n := range sorted {
		tids[n] = i + 1
	}

	meta := func(pid int, procName string) {
		f.TraceEvents = append(f.TraceEvents, Event{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": procName},
		})
		for _, n := range sorted {
			f.TraceEvents = append(f.TraceEvents, Event{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: tids[n],
				Args: map[string]any{"name": n},
			})
		}
	}
	meta(PidWall, "wall clock")
	if anySim {
		meta(PidSim, "sim clock")
	}

	// The wall track's origin is the earliest retained span start (or
	// the snapshot time when no spans were recorded); the sim track uses
	// the simulation's own zero, which every engine starts from.
	base := snap.TakenAt
	for _, sp := range snap.RecentSpans {
		if start := sp.WallStart(); start.Before(base) {
			base = start
		}
	}

	for _, sp := range snap.RecentSpans {
		wall := Event{
			Name: sp.Name, Cat: "span", Ph: "X",
			Ts:  usec(sp.WallStart().Sub(base)),
			Dur: usec(sp.Wall),
			Pid: PidWall, Tid: tids[sp.Name],
		}
		if wall.Dur <= 0 {
			wall.Dur = 0.001 // sub-µs spans still get a visible slice
		}
		if sp.HasSim {
			wall.Args = map[string]any{"sim_ns": sp.Sim.Nanoseconds()}
			sim := Event{
				Name: sp.Name, Cat: "span", Ph: "X",
				Ts:  usec(sp.SimStart()),
				Dur: usec(sp.Sim),
				Pid: PidSim, Tid: tids[sp.Name],
				Args: map[string]any{"wall_ns": sp.Wall.Nanoseconds()},
			}
			if sim.Dur <= 0 {
				sim.Dur = 0.001
			}
			f.TraceEvents = append(f.TraceEvents, sim)
		}
		f.TraceEvents = append(f.TraceEvents, wall)
	}
	return f
}

// Marshal builds and serializes the trace document.
func Marshal(snap obs.Snapshot) ([]byte, error) {
	return json.MarshalIndent(Build(snap), "", " ")
}

// Write builds the trace document and writes it to w.
func Write(w io.Writer, snap obs.Snapshot) error {
	data, err := Marshal(snap)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// WriteFile writes the trace document for snap to path (the -trace-out
// implementation of both CLIs).
func WriteFile(path string, snap obs.Snapshot) error {
	data, err := Marshal(snap)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// validPhases are the event phases this exporter may emit; Validate
// also accepts B/E pairs so externally produced traces check too.
var validPhases = map[string]bool{"X": true, "i": true, "I": true, "M": true, "B": true, "E": true}

// Validate checks that data parses as a trace-event JSON document the
// viewers will load: the Object Format with a traceEvents array (or the
// bare JSON Array Format), every event carrying a phase from the known
// set, non-negative timestamps on timed events, and non-negative
// durations on complete events. It is the schema check behind the CI
// trace smoke step and cmd/tracecheck.
func Validate(data []byte) error {
	var f File
	objErr := json.Unmarshal(data, &f)
	if objErr != nil || f.TraceEvents == nil {
		// Fall back to the JSON Array Format.
		var evs []Event
		if arrErr := json.Unmarshal(data, &evs); arrErr != nil {
			if objErr != nil {
				return fmt.Errorf("export: not trace-event JSON: %w", objErr)
			}
			return errors.New("export: object form lacks a traceEvents array")
		}
		f.TraceEvents = evs
	}
	for i, e := range f.TraceEvents {
		if !validPhases[e.Ph] {
			return fmt.Errorf("export: event %d: unknown phase %q", i, e.Ph)
		}
		if e.Ph == "M" {
			continue // metadata events carry no timestamp
		}
		if e.Name == "" {
			return fmt.Errorf("export: event %d: missing name", i)
		}
		if e.Ts < 0 {
			return fmt.Errorf("export: event %d (%s): negative timestamp %g", i, e.Name, e.Ts)
		}
		if e.Ph == "X" && e.Dur < 0 {
			return fmt.Errorf("export: event %d (%s): negative duration %g", i, e.Name, e.Dur)
		}
	}
	return nil
}

// ValidateFile runs Validate on a file's contents.
func ValidateFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return Validate(data)
}
