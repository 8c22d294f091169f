// Command bench is the repository's benchmark. One process runs one of
// the paper's pipelines — Table III fingerprinting, Fig. 4
// Hamming-weight recovery, Fig. 2 characterisation, or a DPU capture
// campaign under injected faults — in a closed loop for a fixed time,
// checks every result against the paper's shapes, and prints each
// metric by name and unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (bench/bench.sh builds and runs it):
//
//	bench --workload table3 --seed 1 --seconds 25 --trace 0
//	bench --workload fig4 --seed 1 --seconds 25 --trace 1
//	bench -agree SET_A SET_B
//
// With --trace 0 each loop iteration runs the workload once through
// core's entry points, and the end-to-end metrics are reported. With
// --trace 1 each iteration runs it twice: once through core's entry
// points, and once as a composition of the layers' exported calls, each
// call timed from outside. The per-layer
// metrics come from the second run, and both runs' report digests must
// match. -agree compares two directories of saved run outputs (see
// bench/run.sh) against the bounds in BENCHMARK.json.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/board"
	"repro/internal/dpu"
	"repro/internal/obs"
)

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median, because one millisecond-scale sample is too noisy.
const setupRepeats = 15

// metricDef names one reported metric and its unit. BENCHMARK.json
// lists the same names and units; a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported by --trace 0 runs.
var endToEndMetrics = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"shape_ok", "ratio"},
	{"quality", "ratio"},
}

// perLayerMetrics are reported by --trace 1 runs. Layers a workload
// does not call from outside report zero.
var perLayerMetrics = []metricDef{
	{"rforest.train_calls", "count"},
	{"rforest.train_s", "s"},
	{"rforest.train_ms_p50", "ms"},
	{"rforest.train_ms_p90", "ms"},
	{"rforest.train_alloc_mb", "MB"},
	{"rforest.train_span_s", "s"},
	{"rforest.predict_calls", "count"},
	{"rforest.predict_s", "s"},
	{"rforest.predict_us_p50", "us"},
	{"crossval.folds_s", "s"},
	{"features.extract_calls", "count"},
	{"features.extract_s", "s"},
	{"core.collect_calls", "count"},
	{"core.collect_s", "s"},
	{"core.collect_ms_p50", "ms"},
	{"core.collect_ms_max", "ms"},
	{"core.captures", "count"},
	{"core.levels", "count"},
	{"core.level_s", "s"},
	{"core.level_ms_p50", "ms"},
	{"core.level_ms_p90", "ms"},
	{"core.fit_s", "s"},
	{"board.builds", "count"},
	{"board.build_s", "s"},
	{"sim.run_s", "s"},
	{"sim.self_s", "s"},
	{"sim.ticks", "count"},
	{"sim.ns_per_tick", "ns"},
	{"sensor.reads", "count"},
	{"sensor.read_s", "s"},
	{"sensor.ns_per_read", "ns"},
	{"sysfs.reads", "count"},
	{"sampler.retries", "count"},
	{"sampler.reresolves", "count"},
	{"trace.samples", "count"},
	{"trace.gaps", "count"},
	{"faults.injected", "count"},
	{"stats.compute_s", "s"},
	{"report.render_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"traced.wall_s", "s"},
	{"untraced_1w.wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"unattributed_s", "s"},
	{"unattributed_share", "ratio"},
}

// topLevelLayers are the layer timers that never nest inside one
// another; their sum plus unattributed_s is traced.wall_s.
var topLevelLayers = []string{
	"core.collect", "features.extract", "crossval.folds", "rforest.train",
	"rforest.predict", "board.build", "sim.run", "core.level",
	"core.fit", "stats.compute", "report.render",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
	seed := fl.Int64("seed", 1, "seed every input of the workload derives from")
	seconds := fl.Int("seconds", 25, "how long the run measures")
	traced := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	agreeMode := fl.Bool("agree", false, "compare two directories of saved runs: bench -agree SET_A SET_B")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *agreeMode {
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -agree needs two directories")
			return 2
		}
		spec, err := readSpec("BENCHMARK.json")
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		ok, err := agreeDirs(fl.Arg(0), fl.Arg(1), spec, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	w, ok := workloads()[*name]
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "bench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds) * time.Second
	fmt.Fprintf(stdout, "workload %s seed %d trace %d\n", *name, *seed, *traced)
	var res result
	var err error
	if *traced == 1 {
		res, err = measureLayers(w, *seed, budget, stdout)
	} else {
		res, err = measureEndToEnd(w, *seed, budget, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// setup is the work a run does before its first workload call: a clean
// metrics registry, the model zoo, and one board build, which pages in
// the code and data every workload touches.
func setup(seed int64) error {
	obs.Default.Reset()
	if len(dpu.Zoo()) == 0 {
		return errors.New("empty model zoo")
	}
	_, err := board.NewZCU102(board.Config{Seed: seed})
	return err
}

// timeSetup runs setup setupRepeats times and returns the median.
func timeSetup(seed int64) (time.Duration, error) {
	ds := make([]float64, setupRepeats)
	for i := range ds {
		runtime.GC()
		t0 := time.Now()
		if err := setup(seed); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ds[i] = time.Since(t0).Seconds()
	}
	return time.Duration(median(ds) * float64(time.Second)), nil
}

// outcome is what one workload execution produced: its rendered report
// (the paper's table or figure as text), the workload's headline
// figure, and its paper-shape checks.
type outcome struct {
	report  string
	digest  string
	quality float64
	checks  []check
}

// check is one paper-shape claim evaluated on a result.
type check struct {
	name   string
	ok     bool
	detail string
}

func newOutcome(report string, quality float64, checks []check) *outcome {
	sum := sha256.Sum256([]byte(report))
	return &outcome{report: report, digest: hex.EncodeToString(sum[:]), quality: quality, checks: checks}
}

// shapeOK returns the share of passing checks.
func (o *outcome) shapeOK() float64 {
	if len(o.checks) == 0 {
		return 0
	}
	n := 0
	for _, c := range o.checks {
		if c.ok {
			n++
		}
	}
	return float64(n) / float64(len(o.checks))
}

func printChecks(out io.Writer, o *outcome) {
	for _, c := range o.checks {
		fmt.Fprintf(out, "check %s %s %s\n", c.name, verdict(c.ok), c.detail)
	}
}

// counters reads the obs counters the benchmark derives metrics from.
func counters() map[string]int64 {
	snap := obs.Default.Snapshot()
	out := map[string]int64{}
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, "faults.injected.") {
			out["faults.injected"] += v
			continue
		}
		out[k] = v
	}
	return out
}

func delta(after, before map[string]int64, name string) float64 {
	return float64(after[name] - before[name])
}

// okRatio is one minus the failure ratio of a workload call: lost
// samples plus failed shards over samples plus shards.
func okRatio(after, before map[string]int64) float64 {
	lost := delta(after, before, "trace.gaps_recorded") + delta(after, before, "runner.shards_failed")
	all := delta(after, before, "trace.samples_recorded") + delta(after, before, "trace.gaps_recorded") +
		delta(after, before, "runner.shards")
	if all == 0 {
		return 1
	}
	return 1 - lost/all
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// loop calls iter until the budget is spent: it starts another
// iteration only while the median iteration still fits, so a run ends
// close to its budget. It always runs at least one iteration and stops
// at the first error.
func loop(budget time.Duration, iter func() (time.Duration, error)) (int, error) {
	deadline := time.Now().Add(budget)
	var walls []float64
	for {
		runtime.GC()
		wall, err := iter()
		if err != nil {
			return len(walls) + 1, err
		}
		walls = append(walls, wall.Seconds())
		next := time.Duration(median(walls) * float64(time.Second))
		if time.Now().Add(next).After(deadline) {
			return len(walls), nil
		}
	}
}

// measureEndToEnd runs the workload for the budget and reports the
// end-to-end metrics: timings and allocation as the median over
// iterations, peak RSS of the whole process.
func measureEndToEnd(w workload, seed int64, budget time.Duration, out io.Writer) (result, error) {
	setupDur, err := timeSetup(seed)
	if err != nil {
		return result{}, err
	}
	var walls, cpus, allocs []float64
	var first *outcome
	var ok float64
	deterministic := true
	n, runErr := loop(budget, func() (time.Duration, error) {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		c0, cpu0 := counters(), cpuTime()
		t0 := time.Now()
		o, err := w.run(seed)
		wall := time.Since(t0)
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return 0, err
		}
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, cpu.Seconds())
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		if first == nil {
			first, ok = o, okRatio(counters(), c0)
		} else if o.digest != first.digest {
			deterministic = false
		}
		return wall, nil
	})
	res := result{Attempted: n, Metrics: map[string]metric{}}
	if runErr != nil {
		fmt.Fprintf(out, "error %v\n", runErr)
		res.Failed = 1
	}
	if first == nil {
		return res, runErr
	}
	fmt.Fprintf(out, "digest %s\n", first.digest)
	printChecks(out, first)
	if !deterministic {
		fmt.Fprintln(out, "check determinism FAIL report digest changed between iterations")
	}
	values := map[string]float64{
		"wall_s":      median(walls),
		"cpu_s":       median(cpus),
		"setup_s":     setupDur.Seconds(),
		"peak_rss_mb": peakRSSMB(),
		"alloc_mb":    median(allocs),
		"ok_ratio":    ok,
		"shape_ok":    first.shapeOK(),
		"quality":     first.quality,
	}
	fmt.Fprintf(out, "timing n=%d wall_s max=%.4f cpu_s max=%.4f iterations %.3f\n", len(walls), maxOf(walls), maxOf(cpus), walls)
	if res.Metrics, err = collect(endToEndMetrics, values, out); err != nil {
		return res, err
	}
	res.Correct = runErr == nil && deterministic && first.shapeOK() == 1
	return res, nil
}

// measureLayers runs untraced/traced pairs for the budget and reports
// the per-layer metrics, averaged over the pairs.
func measureLayers(w workload, seed int64, budget time.Duration, out io.Writer) (result, error) {
	if err := setup(seed); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	sums := map[string]float64{}
	var first *outcome
	pairs := 0
	digestsOK, readsOK := true, true
	n, runErr := loop(budget, func() (time.Duration, error) {
		p, err := tracePair(w, seed)
		if err != nil {
			return 0, err
		}
		pairs++
		for k, v := range p.values {
			sums[k] += v
		}
		if first == nil {
			first = p.plain
		}
		if p.traced.digest != p.plain.digest || p.plain.digest != first.digest {
			digestsOK = false
		}
		// Only fig4 wraps its probes; the count must match the program's
		// own read counters exactly.
		if p.values["sensor.reads"] > 0 && p.values["sensor.reads"] != p.probed {
			readsOK = false
			fmt.Fprintf(out, "check probe-reads FAIL %.0f probe calls vs %.0f sysfs curr1_input+power1_input reads\n",
				p.values["sensor.reads"], p.probed)
		}
		return time.Duration((p.values["traced.wall_s"] + p.values["untraced_1w.wall_s"]) * float64(time.Second)), nil
	})
	res := result{Attempted: n, Metrics: map[string]metric{}}
	if runErr != nil {
		fmt.Fprintf(out, "error %v\n", runErr)
		res.Failed = 1
	}
	if first == nil {
		return res, runErr
	}
	values := map[string]float64{}
	for k, v := range sums {
		values[k] = v / float64(pairs)
	}
	fmt.Fprintf(out, "digest %s\n", first.digest)
	printChecks(out, first)
	fmt.Fprintf(out, "check traced-digest %s outside composition reproduces core's report\n", verdict(digestsOK))
	if values["sensor.reads"] > 0 && readsOK {
		fmt.Fprintf(out, "check probe-reads ok %.0f probe calls per traced run match the sysfs read counters\n", values["sensor.reads"])
	}
	printTimingChecks(out, values)
	printLayerTable(out, values, pairs)
	var err error
	if res.Metrics, err = collect(perLayerMetrics, values, out); err != nil {
		return res, err
	}
	res.Correct = runErr == nil && digestsOK && readsOK && first.shapeOK() == 1
	return res, nil
}

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}

// printTimingChecks reports the consistency checks that compare two
// timings. Timings are noisy, so these are reported, not part of
// "correct": the outside train timer against the program's own
// ml.fold_train spans from the untraced run, and the unattributed
// remainder against 5% of the traced wall time.
func printTimingChecks(out io.Writer, values map[string]float64) {
	if span := values["rforest.train_span_s"]; span > 0 {
		diff := math.Abs(values["rforest.train_s"]-span) / span
		fmt.Fprintf(out, "timing-check train-vs-span %s outside %.4f s vs span %.4f s (%.1f%%, limit 5%%)\n",
			verdict(diff <= 0.05), values["rforest.train_s"], span, 100*diff)
	}
	share := values["unattributed_share"]
	fmt.Fprintf(out, "timing-check unattributed %s %.2f%% of traced wall (limit 5%%)\n", verdict(share < 0.05), 100*share)
}

// collect turns computed values into the result's metric map, printing
// each, and fails if the values do not match the catalog exactly.
func collect(defs []metricDef, values map[string]float64, out io.Writer) (map[string]metric, error) {
	if len(values) != len(defs) {
		return nil, fmt.Errorf("computed %d metrics, catalog has %d", len(values), len(defs))
	}
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not computed", d.name)
		}
		m[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "metric %s %g %s\n", d.name, v, d.unit)
	}
	return m, nil
}

// printLayerTable prints each top-level layer's share of traced.wall_s.
func printLayerTable(out io.Writer, values map[string]float64, pairs int) {
	wall := values["traced.wall_s"]
	fmt.Fprintf(out, "layers (mean of %d traced run(s), traced.wall_s=%.4f)\n", pairs, wall)
	for _, l := range append(append([]string(nil), topLevelLayers...), "unattributed") {
		if v := values[l+"_s"]; v != 0 {
			fmt.Fprintf(out, "  %-16s %9.4f s %6.2f%%\n", l, v, 100*v/wall)
		}
	}
	if v := values["sensor.read_s"]; v != 0 {
		fmt.Fprintf(out, "  %-16s %9.4f s %6.2f%% (inside sim.run)\n", "sensor.read", v, 100*v/wall)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
