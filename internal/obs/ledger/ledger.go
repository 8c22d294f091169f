// Package ledger is the durable half of the observability stack: an
// append-only JSONL run ledger. Every amperebleed/benchtab invocation
// that runs with -ledger appends one Manifest — what was run (tool,
// subcommand, flags, board, root seed, fault profile, workers, go
// version), how long it took in wall and simulated time (and, per
// experiment, which spans the wall time went to), and the derived
// channel-quality figures the paper's evaluation turns on
// (attacker sample-rate percentiles, leakage SNR and TVLA t, covert
// BER and rate, fingerprinting accuracy) plus the full deterministic
// counter set.
//
// The ledger exists because those quantities were previously computed
// and discarded: a regression in measurement quality — the silent
// failure mode side-channel reproductions are most prone to — was
// invisible across runs. With manifests retained, `amperebleed runs`
// lists, filters, and diffs them ("same seed and board, accuracy
// moved"), and the canonical form of a manifest is what the behaviour
// oracles under cmd/*/testdata pin. The ledger is the repository's
// only record of past runs.
//
// Manifests of runs that differ only in scheduling (worker count) are
// byte-identical after Canonicalize, which strips run metadata and
// wall-clock-dependent fields and rounds floats below the accumulation
// -order noise floor; the determinism test in this package holds that
// property across workers 1, 4, and 16.
package ledger

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
)

// SchemaVersion identifies the manifest schema; bump it when fields
// change meaning or name.
const SchemaVersion = 1

// Figures are the derived channel-quality numbers of one run, pulled
// from the obs registry snapshot taken as the run ends.
type Figures struct {
	// SampleRate summarizes the attacker's achieved sampling rate in Hz
	// of simulated time — the channel's capacity bound.
	SampleRate obs.HistogramStat `json:"attacker_sample_rate_hz"`
	// LeakageSNR is the last leakage signal-to-noise ratio computed
	// (internal/leakage records it as the leakage.snr gauge).
	LeakageSNR float64 `json:"leakage_snr"`
	// LeakageT is the last TVLA fixed-vs-random t-statistic.
	LeakageT float64 `json:"leakage_tvla_t"`
	// CovertBER and CovertBitsPerSec summarize the last covert
	// transmission.
	CovertBER        float64 `json:"covert_ber"`
	CovertBitsPerSec float64 `json:"covert_bits_per_sec"`
	// FingerprintTop1/Top5 are the mean Table III accuracies of the last
	// evaluation.
	FingerprintTop1 float64 `json:"fingerprint_top1"`
	FingerprintTop5 float64 `json:"fingerprint_top5"`
	// Counters is the full counter set of the run (sim ticks, samples
	// captured and lost, fault injections, sysfs traffic, ...).
	Counters map[string]int64 `json:"counters"`
}

// FiguresFrom extracts the derived figures from a snapshot.
func FiguresFrom(snap obs.Snapshot) Figures {
	f := Figures{
		LeakageSNR:       snap.Gauge("leakage.snr"),
		LeakageT:         snap.Gauge("leakage.tvla_t"),
		CovertBER:        snap.Gauge("covert.ber"),
		CovertBitsPerSec: snap.Gauge("covert.bits_per_sec"),
		FingerprintTop1:  snap.Gauge("fingerprint.top1_mean"),
		FingerprintTop5:  snap.Gauge("fingerprint.top5_mean"),
		Counters:         make(map[string]int64, len(snap.Counters)),
	}
	if h, ok := snap.Histogram("attacker.sample_rate_hz"); ok {
		f.SampleRate = h
	}
	for k, v := range snap.Counters {
		f.Counters[k] = v
	}
	return f
}

// Experiment is where one experiment of a run spent its time: its wall
// time and, per span name, how many spans it completed and their summed
// wall time, from the lossless "span.<name>.wall_ns" histograms.
//
// Span totals are inclusive: a span's time contains that of the spans
// it encloses (runner.collect contains every core.capture of its
// shards), so the totals of one entry do not add up to anything. They
// are also summed over the runner's workers, so with several workers a
// span's total can exceed the experiment's WallS.
type Experiment struct {
	// Name is the experiment (benchtab) or command (amperebleed).
	Name string `json:"name"`
	// WallS is the experiment's wall-clock duration in seconds.
	WallS float64 `json:"wall_s"`
	// Spans maps a span name to the spans of that name the experiment
	// completed; a span it did not run is absent.
	Spans map[string]SpanTime `json:"spans"`
}

// SpanTime is the completed spans of one name within one experiment.
type SpanTime struct {
	Count int64   `json:"count"`
	WallS float64 `json:"wall_s"`
}

// ExperimentFrom builds the time record of experiment name from the
// registry snapshots taken as it started and as it ended.
func ExperimentFrom(name string, before, after obs.Snapshot) Experiment {
	e := Experiment{
		Name:  name,
		WallS: after.TakenAt.Sub(before.TakenAt).Seconds(),
		Spans: make(map[string]SpanTime),
	}
	for k, h := range after.Histograms {
		span, ok := strings.CutPrefix(k, "span.")
		if !ok {
			continue
		}
		if span, ok = strings.CutSuffix(span, ".wall_ns"); !ok {
			continue
		}
		b := before.Histograms[k]
		if n := h.Count - b.Count; n > 0 {
			ns := float64(h.Count)*h.Mean - float64(b.Count)*b.Mean
			e.Spans[span] = SpanTime{Count: n, WallS: ns / 1e9}
		}
	}
	return e
}

// RunInfo is what the invoking CLI knows about the run.
type RunInfo struct {
	// Tool is the binary ("amperebleed", "benchtab").
	Tool string
	// Command is the subcommand or -exp selector.
	Command string
	// Args are the subcommand's raw flag arguments, for reproducing the
	// exact invocation.
	Args []string
	// Board names the simulated target ("zcu102", "all" for the
	// applicability sweep, empty for board-less commands).
	Board string
	// Seed is the root seed of the run.
	Seed int64
	// FaultProfile and FaultIntensity describe the injected fault
	// profile (empty/zero when fault injection is off).
	FaultProfile   string
	FaultIntensity float64
	// Workers is the sharded-runner worker count (0 = nothing sharded).
	Workers int
	// RunID identifies this run; ParentRunID is the run whose checkpoint
	// it resumed from and ResumedShards how many shards that checkpoint
	// carried. All zero for ordinary (non-supervised, non-resumed) runs.
	RunID         string
	ParentRunID   string
	ResumedShards int
	// Started is when the run began; Wall its wall-clock duration.
	Started time.Time
	Wall    time.Duration
	// Experiments is where the run's time went, one entry per
	// experiment in run order.
	Experiments []Experiment
}

// Manifest is one ledger line.
type Manifest struct {
	SchemaVersion  int       `json:"schema_version"`
	Tool           string    `json:"tool"`
	Command        string    `json:"command"`
	Args           []string  `json:"args,omitempty"`
	Board          string    `json:"board,omitempty"`
	Seed           int64     `json:"seed"`
	FaultProfile   string    `json:"fault_profile,omitempty"`
	FaultIntensity float64   `json:"fault_intensity,omitempty"`
	Workers        int       `json:"workers,omitempty"`
	RunID          string    `json:"run_id,omitempty"`
	ParentRunID    string    `json:"parent_run_id,omitempty"`
	ResumedShards  int       `json:"resumed_shards,omitempty"`
	GoVersion      string    `json:"go_version,omitempty"`
	StartedAt      time.Time `json:"started_at"`
	WallSeconds    float64   `json:"wall_seconds"`
	SimSeconds     float64   `json:"sim_seconds"`
	Figures        Figures   `json:"figures"`
	// Experiments is wall-clock data, so Canonicalize drops it. It is
	// additive (older manifests have none), so SchemaVersion stays 1.
	Experiments []Experiment `json:"experiments,omitempty"`
}

// New builds a manifest for a finished run from the run info and the
// end-of-run registry snapshot.
func New(info RunInfo, snap obs.Snapshot) Manifest {
	return Manifest{
		SchemaVersion:  SchemaVersion,
		Tool:           info.Tool,
		Command:        info.Command,
		Args:           info.Args,
		Board:          info.Board,
		Seed:           info.Seed,
		FaultProfile:   info.FaultProfile,
		FaultIntensity: info.FaultIntensity,
		Workers:        info.Workers,
		RunID:          info.RunID,
		ParentRunID:    info.ParentRunID,
		ResumedShards:  info.ResumedShards,
		GoVersion:      runtime.Version(),
		StartedAt:      info.Started,
		WallSeconds:    info.Wall.Seconds(),
		SimSeconds:     float64(snap.Counter("sim.simtime_ns")) / 1e9,
		Figures:        FiguresFrom(snap),
		Experiments:    info.Experiments,
	}
}

// Append writes the manifest as one JSON line at the end of path,
// creating the file if needed. O_APPEND keeps concurrent appenders from
// interleaving within a line on POSIX filesystems.
func Append(path string, m Manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read loads every manifest in the ledger, oldest first. Blank lines
// are skipped; a malformed line fails with its line number so a
// corrupted ledger is diagnosable.
func Read(path string) ([]Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Manifest
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var m Manifest
		if err := json.Unmarshal([]byte(text), &m); err != nil {
			return nil, fmt.Errorf("ledger: %s:%d: %w", path, line, err)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ledger: %s: %w", path, err)
	}
	return out, nil
}

// Filter selects manifests by run identity; zero/empty fields match
// anything.
type Filter struct {
	Tool         string
	Command      string
	Board        string
	FaultProfile string
	Seed         int64 // 0 matches any seed
}

// Match reports whether the manifest satisfies the filter.
func (f Filter) Match(m Manifest) bool {
	if f.Tool != "" && m.Tool != f.Tool {
		return false
	}
	if f.Command != "" && m.Command != f.Command {
		return false
	}
	if f.Board != "" && m.Board != f.Board {
		return false
	}
	if f.FaultProfile != "" && m.FaultProfile != f.FaultProfile {
		return false
	}
	if f.Seed != 0 && m.Seed != f.Seed {
		return false
	}
	return true
}

// Select returns the manifests matching the filter, preserving order.
func Select(ms []Manifest, f Filter) []Manifest {
	var out []Manifest
	for _, m := range ms {
		if f.Match(m) {
			out = append(out, m)
		}
	}
	return out
}

// roundSig rounds to 9 significant digits — far above the last-bit
// noise that float accumulation order introduces between runs that
// differ only in scheduling, far below any physically meaningful
// difference in the figures.
func roundSig(v float64) float64 {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	scale := math.Pow(10, 8-math.Floor(math.Log10(math.Abs(v))))
	return math.Round(v*scale) / scale
}

func roundStat(h obs.HistogramStat) obs.HistogramStat {
	h.Mean = roundSig(h.Mean)
	h.Min = roundSig(h.Min)
	h.Max = roundSig(h.Max)
	h.P50 = roundSig(h.P50)
	h.P95 = roundSig(h.P95)
	h.P99 = roundSig(h.P99)
	return h
}

// Canonicalize strips everything about a manifest that legitimately
// varies between reruns of the same experiment — wall-clock fields,
// scheduling metadata (worker count, raw args), environment (go
// version), and wall-time-derived counters — and rounds the remaining
// floats past accumulation-order noise. Two runs with the same seed,
// board, and fault profile canonicalize to byte-identical JSON
// regardless of worker count; the determinism test enforces this.
func Canonicalize(m Manifest) Manifest {
	m.Args = nil
	m.Workers = 0
	// Resume lineage describes how the run executed, not what it
	// measured: a killed-and-resumed run must canonicalize identically
	// to an uninterrupted one (the jobs package's resume property).
	m.RunID = ""
	m.ParentRunID = ""
	m.ResumedShards = 0
	m.GoVersion = ""
	m.StartedAt = time.Time{}
	m.WallSeconds = 0
	m.Experiments = nil
	m.SimSeconds = roundSig(m.SimSeconds)
	f := &m.Figures
	f.SampleRate = roundStat(f.SampleRate)
	f.LeakageSNR = roundSig(f.LeakageSNR)
	f.LeakageT = roundSig(f.LeakageT)
	f.CovertBER = roundSig(f.CovertBER)
	f.CovertBitsPerSec = roundSig(f.CovertBitsPerSec)
	f.FingerprintTop1 = roundSig(f.FingerprintTop1)
	f.FingerprintTop5 = roundSig(f.FingerprintTop5)
	counters := make(map[string]int64, len(f.Counters))
	for k, v := range f.Counters {
		if strings.Contains(k, "walltime") {
			continue // wall-clock dependent by construction
		}
		counters[k] = v
	}
	f.Counters = counters
	return m
}

// CanonicalJSON marshals the canonicalized manifest; map keys are
// sorted by encoding/json, so equal canonical manifests are
// byte-identical.
func CanonicalJSON(m Manifest) ([]byte, error) {
	return json.Marshal(Canonicalize(m))
}
