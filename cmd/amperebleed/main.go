// Command amperebleed is the interactive CLI of the AmpereBleed
// reproduction: it builds a simulated ZCU102 and drives the attack's
// building blocks from the command line.
//
// Paper experiments:
//
//	boards                     print the Table I board survey
//	characterize [-levels]     run the Fig. 2 sweep
//	fingerprint [-models ...]  fingerprint DPU accelerators (Table III)
//	rsa [-samples]             recover RSA key Hamming weights (Fig. 4)
//	mitigate                   demonstrate the Sec. V countermeasure
//
// Attack building blocks:
//
//	sensors                    discover hwmon sensors and print live readings
//	survey                     rank sensors by variation under victim load
//	watch [-channel] [-n]      poll one channel like the attack loop does
//	export [-dir]              snapshot the sysfs tree to a real directory
//
// Extensions:
//
//	zoo                        list the 39-model fingerprinting suite
//	profile [-model]           per-layer DPU schedule analysis
//	leakage [-ladder]          TVLA fixed-vs-random assessment
//	applicability              the attack loop on all 8 Table I boards
//	covert [-bits]             PL->PS covert transmission over the sensor
//	robustness [-profile]      accuracy-vs-fault-rate sweep under injected faults
//	runs [-ledger]             list, filter and diff recorded run manifests
//	resume <checkpoint>        continue an interrupted supervised run
//
// The global -faults flag (none|flaky-sysfs|stale-sensor|noisy-sched|
// hostile) injects deterministic sensor and scheduler faults into every
// simulated board; -fault-intensity scales the chosen profile.
//
// The global -ledger flag appends a run manifest (what ran, with which
// seed and fault profile, the channel-quality figures it produced, and
// the command's wall time and span totals) to a JSONL run ledger after
// the command.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/dpu"
	"repro/internal/faults"
	"repro/internal/imagenet"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/report"
	"repro/internal/sysfs"
	"repro/internal/virus"
)

// runMeta carries the per-command identity the run ledger needs out of
// each subcommand's private flag set; handlers report it via noteRun
// right after parsing their flags.
var runMeta struct {
	seed          int64
	workers       int
	runID         string
	parentRunID   string
	resumedShards int
	// command/faultProfile/faultIntensity, when set, override what the
	// manifest records: `resume` reports the experiment it continued
	// (kind and fault profile from the checkpoint), not itself, so a
	// resumed run's canonical manifest is comparable with the
	// uninterrupted run it completes.
	command        string
	faultProfile   string
	faultIntensity float64
}

// noteRun records the seed and worker count a command handler resolved
// from its flags, for the -ledger manifest written after the command.
// A command that shards nothing records 0 workers.
func noteRun(seed int64, workers int) {
	runMeta.seed = seed
	runMeta.workers = workers
}

// poolSize is the runner pool a -parallel value gives: GOMAXPROCS for 0.
func poolSize(parallel int) int {
	if parallel == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallel
}

// noteLineage records a supervised run's resume lineage for the
// manifest: which run this one continues and how many shards it
// replayed from the checkpoint.
func noteLineage(runID, parentRunID string, resumedShards int) {
	runMeta.runID = runID
	runMeta.parentRunID = parentRunID
	runMeta.resumedShards = resumedShards
}

// noteResumedSpec records the identity of the run a checkpoint
// continues, overriding the manifest's command and fault fields.
func noteResumedSpec(kind, faultProfile string, faultIntensity float64) {
	runMeta.command = kind
	runMeta.faultProfile = faultProfile
	runMeta.faultIntensity = faultIntensity
}

// faultSpec keeps the raw global fault flags for `characterize
// -checkpoint`, whose checkpoints record the profile by name and
// intensity rather than as a resolved rate table. They are recorded
// only when the flags resolve to a profile at all.
var faultSpec struct {
	name      string
	intensity float64
}

func main() { os.Exit(run()) }

// run is main behind an exit code, so the ledger and snapshot still
// happen when a command fails or is interrupted — a cancelled run
// flushes everything it measured.
func run() int {
	// Global observability flags precede the command:
	//
	//	amperebleed [-obs] [-faults profile] <command> [flags]
	//
	// -obs prints a metrics snapshot after the command.
	obsText := flag.Bool("obs", false, "print an observability snapshot after the command")
	faultsName := flag.String("faults", "none", "fault profile injected into every simulated board: "+strings.Join(faults.PresetNames(), "|"))
	faultIntensity := flag.Float64("fault-intensity", 1, "scale factor applied to the -faults profile rates")
	ledgerPath := flag.String("ledger", "", "append a run manifest to this JSONL run ledger after the command")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	if err := (runFlags{FaultIntensity: *faultIntensity}).validate(); err != nil {
		fmt.Fprintf(os.Stderr, "amperebleed: %v\n", err)
		return 2
	}
	start := time.Now()
	before := obs.Default.Snapshot()
	profile, err := faults.Resolve(*faultsName, *faultIntensity)
	if err != nil {
		fmt.Fprintf(os.Stderr, "amperebleed: %v\n", err)
		return 2
	}
	if profile != nil && !takesFaults(cmd) {
		// A manifest recording the profile would claim abuse the run never
		// saw.
		fmt.Fprintf(os.Stderr, "amperebleed: -faults %s does not apply to %s (only characterize, fingerprint, applicability and covert take a profile)\n", *faultsName, cmd)
		return 2
	}
	faultSpec.name, faultSpec.intensity = *faultsName, *faultIntensity
	// Two-stage shutdown: the first SIGINT/SIGTERM cancels runCtx so the
	// command winds down and the tail below still flushes the ledger
	// and checkpoints; a second signal aborts immediately.
	sigCh, stopNotify := notifyInterrupts()
	defer stopNotify()
	runCtx, stopSignals := watchSignals(context.Background(), sigCh, os.Exit)
	defer stopSignals()
	switch cmd {
	case "boards":
		err = cmdBoards()
	case "sensors":
		err = cmdSensors(args)
	case "survey":
		err = cmdSurvey(args)
	case "watch":
		err = cmdWatch(args)
	case "characterize":
		err = cmdCharacterize(runCtx, args, profile)
	case "fingerprint":
		err = cmdFingerprint(args, profile)
	case "rsa":
		err = cmdRSA(args)
	case "mitigate":
		err = cmdMitigate(args)
	case "zoo":
		err = cmdZoo()
	case "profile":
		err = cmdProfile(args)
	case "leakage":
		err = cmdLeakage(args)
	case "applicability":
		err = cmdApplicability(args, profile)
	case "robustness":
		err = cmdRobustness(args)
	case "export":
		err = cmdExport(args)
	case "covert":
		err = cmdCovert(args, profile)
	case "runs":
		err = cmdRuns(args)
	case "resume":
		err = cmdResume(runCtx, args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "amperebleed: unknown command %q\n", cmd)
		usage()
		return 2
	}
	// From here on the run flushes even when the command failed or was
	// interrupted: a checkpointed run's partial measurements are exactly
	// what `resume` and post-mortem ledger diffs need.
	code := 0
	if err != nil {
		fmt.Fprintf(os.Stderr, "amperebleed: %v\n", err)
		code = 1
	}
	if *ledgerPath != "" && cmd != "runs" {
		faultProfile := ""
		intensity := 0.0
		if profile != nil {
			faultProfile = *faultsName
			intensity = *faultIntensity
		}
		manifestCmd := cmd
		if runMeta.command != "" {
			manifestCmd = runMeta.command
		}
		if runMeta.faultProfile != "" {
			faultProfile = runMeta.faultProfile
			intensity = runMeta.faultIntensity
		}
		// The snapshot precedes Wall, so the command's entry never
		// outlasts the run.
		snap := obs.Default.Snapshot()
		m := ledger.New(ledger.RunInfo{
			Tool:           "amperebleed",
			Command:        manifestCmd,
			Args:           args,
			Board:          "zcu102",
			Seed:           runMeta.seed,
			FaultProfile:   faultProfile,
			FaultIntensity: intensity,
			Workers:        runMeta.workers,
			RunID:          runMeta.runID,
			ParentRunID:    runMeta.parentRunID,
			ResumedShards:  runMeta.resumedShards,
			Started:        start,
			Wall:           time.Since(start),
			Experiments:    []ledger.Experiment{ledger.ExperimentFrom(manifestCmd, before, snap)},
		}, snap)
		if err := ledger.Append(*ledgerPath, m); err != nil {
			fmt.Fprintf(os.Stderr, "amperebleed: ledger: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "run manifest appended to %s\n", *ledgerPath)
	}
	if *obsText {
		fmt.Println()
		if err := obs.Default.Snapshot().WriteText(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "amperebleed: obs snapshot: %v\n", err)
			return 1
		}
	}
	return code
}

// takesFaults reports whether cmd builds boards that take the global
// -faults profile. robustness sweeps its own -profile, resume takes the
// checkpoint's, and the other commands build no faulted board.
func takesFaults(cmd string) bool {
	switch cmd {
	case "characterize", "fingerprint", "applicability", "covert":
		return true
	}
	return false
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: amperebleed [-obs] [-faults profile] <command> [flags]

global flags (before the command):
  -obs            print an observability snapshot (counters, gauges and
                  histograms, span timings included) after the command
  -faults NAME    inject sensor/scheduler faults into every simulated
                  board: none|flaky-sysfs|stale-sensor|noisy-sched|hostile;
                  only characterize, fingerprint, applicability and
                  covert take a profile (robustness sweeps its own
                  -profile, resume takes the checkpoint's)
  -fault-intensity X
                  scale the profile's rates by X (default 1)
  -ledger FILE    append a run manifest (command, seed, fault profile,
                  channel-quality figures, wall time and span totals)
                  to this JSONL run ledger

commands:
  boards        print the surveyed ARM-FPGA boards (Table I)
  sensors       discover hwmon sensors on a simulated ZCU102
  survey        rank sensors by observed variation while a victim runs
  watch         poll one sensor channel like the attack loop
  characterize  sweep the power-virus victim (Fig. 2)
  fingerprint   fingerprint DPU accelerators (Table III)
  rsa           recover RSA key Hamming weights (Fig. 4)
  mitigate      demonstrate the root-only mitigation (Sec. V)
  zoo           list the 39 DNN architectures of the fingerprinting suite
  profile       show where a model's inference time goes on the DPU
  leakage       run the TVLA fixed-vs-random leakage assessment
  applicability run the attack loop on all 8 Table I boards
  robustness    sweep a fault profile and plot accuracy vs fault rate
  export        snapshot the simulated sysfs tree to a real directory
  covert        transmit bits over the FPGA->CPU covert channel
  runs          list, filter and diff run-ledger manifests
  resume        continue an interrupted supervised run from its
                checkpoint file; completed shards replay, the result is
                byte-identical to an uninterrupted run`)
}

func cmdBoards() error {
	return report.RenderTableI(os.Stdout, board.Catalog())
}

// cmdRuns reads a run ledger and lists, filters, or diffs its
// manifests. Indices printed by the listing address the filtered view,
// so -diff composes with the filter flags.
func cmdRuns(args []string) error {
	fs := flag.NewFlagSet("runs", flag.ExitOnError)
	path := fs.String("ledger", "runs.jsonl", "run ledger to read")
	tool := fs.String("tool", "", "filter: tool that wrote the run (amperebleed|benchtab)")
	command := fs.String("command", "", "filter: subcommand or experiment selector")
	boardName := fs.String("board", "", "filter: board name")
	prof := fs.String("profile", "", "filter: fault profile")
	seed := fs.Int64("seed", 0, "filter: root seed (0 = any)")
	diff := fs.String("diff", "", "diff two listed runs by index, e.g. 0,3")
	canonical := fs.Int("canonical", -1, "print the canonical JSON of one listed run by index (scheduling-independent; byte-comparable across worker counts and checkpoint/resume)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ms, err := ledger.Read(*path)
	if err != nil {
		return err
	}
	ms = ledger.Select(ms, ledger.Filter{
		Tool:         *tool,
		Command:      *command,
		Board:        *boardName,
		FaultProfile: *prof,
		Seed:         *seed,
	})
	if *canonical != -1 {
		if *canonical < 0 || *canonical >= len(ms) {
			return fmt.Errorf("-canonical index %d outside the %d filtered run(s)", *canonical, len(ms))
		}
		data, err := ledger.CanonicalJSON(ms[*canonical])
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", data)
		return nil
	}
	if *diff == "" {
		return report.RenderRuns(os.Stdout, ms)
	}
	var i, j int
	if _, err := fmt.Sscanf(*diff, "%d,%d", &i, &j); err != nil {
		return fmt.Errorf("bad -diff %q (want two indices, e.g. 0,3)", *diff)
	}
	if i < 0 || j < 0 || i >= len(ms) || j >= len(ms) {
		return fmt.Errorf("-diff indices %d,%d outside the %d filtered run(s)", i, j, len(ms))
	}
	return report.RenderRunDiff(os.Stdout, ms[i], ms[j])
}

func cmdSensors(args []string) error {
	fs := flag.NewFlagSet("sensors", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "board seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	noteRun(*seed, 0)
	b, err := board.NewZCU102(board.Config{Seed: *seed})
	if err != nil {
		return err
	}
	b.Run(100 * time.Millisecond)
	atk, err := core.NewAttacker(b.Sysfs(), sysfs.Nobody)
	if err != nil {
		return err
	}
	sensors, err := atk.Discover()
	if err != nil {
		return err
	}
	tab := &report.Table{
		Title:   fmt.Sprintf("Discovered %d INA226 sensors (unprivileged)", len(sensors)),
		Headers: []string{"Dir", "Label", "Current (A)", "Voltage (V)", "Power (W)"},
	}
	for _, s := range sensors {
		row := []string{s.Dir, s.Label}
		for _, kind := range []core.Kind{core.Current, core.Voltage, core.Power} {
			probe, err := atk.Probe(core.Channel{Label: s.Label, Kind: kind})
			if err != nil {
				return err
			}
			v, err := probe()
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		tab.AddRow(row...)
	}
	return tab.Render(os.Stdout)
}

func cmdSurvey(args []string) error {
	fs := flag.NewFlagSet("survey", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "board seed")
	dur := fs.Duration("duration", 2*time.Second, "survey window")
	model := fs.String("victim", "ResNet-50", "zoo model the victim DPU runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	noteRun(*seed, 0)
	b, err := board.NewZCU102(board.Config{Seed: *seed})
	if err != nil {
		return err
	}
	queries, err := imagenet.New(b.Engine().Stream("queries"))
	if err != nil {
		return err
	}
	engine, err := dpu.NewEngine(dpu.EngineConfig{
		Queries:        queries,
		SetCPUFullUtil: b.CPUFull().SetUtil,
		SetCPULowUtil:  b.CPULow().SetUtil,
		SetDDRUtil:     b.DDR().SetUtil,
	})
	if err != nil {
		return err
	}
	if err := b.Fabric().Place(engine, b.Fabric().SpreadEvenly()); err != nil {
		return err
	}
	m, err := dpu.ZooModel(*model)
	if err != nil {
		return err
	}
	if err := engine.LoadModel(m); err != nil {
		return err
	}
	b.Run(100 * time.Millisecond)

	atk, err := core.NewAttacker(b.Sysfs(), sysfs.Nobody)
	if err != nil {
		return err
	}
	rows, err := core.Survey(b, atk, *dur)
	if err != nil {
		return err
	}
	tab := &report.Table{
		Title:   fmt.Sprintf("Sensor triage while victim runs %s (%v window)", *model, *dur),
		Headers: []string{"Rank", "Dir", "Label", "Mean (A)", "Std (A)", "Range (A)"},
	}
	for i, r := range rows {
		tab.AddRow(fmt.Sprintf("%d", i+1), r.Dir, r.Label,
			fmt.Sprintf("%.3f", r.MeanAmps),
			fmt.Sprintf("%.4f", r.StdAmps),
			fmt.Sprintf("%.3f", r.RangeAmps))
	}
	return tab.Render(os.Stdout)
}

func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "board seed")
	label := fs.String("sensor", board.SensorFPGA, "sensor label")
	kind := fs.String("channel", "current", "channel: current|voltage|power")
	n := fs.Int("n", 20, "number of samples")
	load := fs.Int("virus-groups", 0, "active power-virus groups (victim load)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	noteRun(*seed, 0)
	b, err := board.NewZCU102(board.Config{Seed: *seed})
	if err != nil {
		return err
	}
	if *load > 0 {
		if err := deployVirus(b, *load); err != nil {
			return err
		}
	}
	b.Run(100 * time.Millisecond)
	atk, err := core.NewAttacker(b.Sysfs(), sysfs.Nobody)
	if err != nil {
		return err
	}
	probe, err := atk.Probe(core.Channel{Label: *label, Kind: core.Kind(strings.ToLower(*kind))})
	if err != nil {
		return err
	}
	dev, err := b.Sensor(*label)
	if err != nil {
		return err
	}
	// The achieved sampling rate — the quantity the channel capacity
	// depends on — is recorded per poll and reported as the histogram's
	// running median, so transient stalls show up as a rate dip.
	rateHist := obs.H("attacker.sample_rate_hz")
	last := b.Engine().Now()
	for i := 0; i < *n; i++ {
		b.Run(dev.UpdateInterval())
		v, err := probe()
		if err != nil {
			return err
		}
		now := b.Engine().Now()
		dt := now - last
		last = now
		rate := 0.0
		if dt > 0 {
			rate = 1 / dt.Seconds()
			rateHist.Observe(rate)
		}
		fmt.Printf("t=%8s  %s %s = %.4f  rate=%5.1f Hz (p50 %.1f Hz over %d samples)\n",
			now.Round(time.Millisecond), *label, *kind, v,
			rate, rateHist.Quantile(0.5), rateHist.Count())
	}
	return nil
}

func deployVirus(b *board.ZCU102, groups int) error {
	array, err := virus.New(virus.Config{})
	if err != nil {
		return err
	}
	if err := array.Deploy(b.Fabric()); err != nil {
		return err
	}
	return array.SetActiveGroups(groups)
}

func cmdCharacterize(ctx context.Context, args []string, profile *faults.Profile) error {
	fs := flag.NewFlagSet("characterize", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "experiment seed")
	levels := fs.Int("levels", 0, "activation levels (0 = paper's 161)")
	samples := fs.Int("samples", 20, "hwmon updates averaged per level")
	noStab := fs.Bool("no-stabilizer", false, "disable the VCCINT stabilizer (ablation)")
	parallel := fs.Int("parallel", 0, "workers for the per-level shards (0 = GOMAXPROCS; results are identical for any worker count)")
	checkpoint := fs.String("checkpoint", "", "run supervised with crash-safe checkpointing to this file (resumable with `amperebleed resume`)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := (runFlags{Parallel: *parallel}).validate(); err != nil {
		return err
	}
	noteRun(*seed, poolSize(*parallel))
	if *checkpoint != "" {
		cfg, err := json.Marshal(jobs.CharacterizeConfig{
			Levels:            *levels,
			SamplesPerLevel:   *samples,
			DisableStabilizer: *noStab,
		})
		if err != nil {
			return err
		}
		spec := jobs.Spec{
			RunID:          fmt.Sprintf("characterize-%d-%d", os.Getpid(), time.Now().Unix()),
			Seed:           *seed,
			Config:         cfg,
			Workers:        *parallel,
			CheckpointPath: *checkpoint,
		}
		if profile != nil {
			spec.FaultProfile, spec.FaultIntensity = faultSpec.name, faultSpec.intensity
		}
		return runCharacterizeJob(ctx, "characterize", spec)
	}
	res, err := core.Characterize(core.CharacterizeConfig{
		Seed:              *seed,
		Levels:            *levels,
		SamplesPerLevel:   *samples,
		DisableStabilizer: *noStab,
		Parallelism:       *parallel,
		Faults:            profile,
	})
	if err != nil {
		return err
	}
	return report.RenderFig2(os.Stdout, res)
}

func cmdFingerprint(args []string, profile *faults.Profile) error {
	fs := flag.NewFlagSet("fingerprint", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "experiment seed")
	models := fs.String("models", "", "comma-separated zoo models (empty = all 39)")
	traces := fs.Int("traces", 10, "traces per model")
	dur := fs.Duration("duration", 5*time.Second, "capture duration")
	folds := fs.Int("folds", 10, "cross-validation folds")
	interval := fs.Duration("update-interval", 0, "hwmon update interval override (root)")
	save := fs.String("save", "", "write the collected captures to this JSON file")
	load := fs.String("load", "", "reuse captures from this JSON file instead of collecting")
	parallel := fs.Int("parallel", 0, "workers for trace capture and evaluation shards (0 = GOMAXPROCS; results are identical for any worker count)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := (runFlags{Parallel: *parallel}).validate(); err != nil {
		return err
	}
	noteRun(*seed, poolSize(*parallel))
	cfg := core.FingerprintConfig{
		Seed:           *seed,
		TracesPerModel: *traces,
		TraceDuration:  *dur,
		Folds:          *folds,
		UpdateInterval: *interval,
		Parallelism:    *parallel,
		Faults:         profile,
	}
	if *models != "" {
		cfg.Models = strings.Split(*models, ",")
	}
	durations := []time.Duration{*dur}
	if *dur == 5*time.Second {
		durations = []time.Duration{time.Second, 2 * time.Second, 3 * time.Second,
			4 * time.Second, 5 * time.Second}
	}
	cfg.Durations = durations

	var captures []*core.Capture
	var err error
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		defer f.Close()
		if captures, err = core.LoadCaptures(f); err != nil {
			return err
		}
	} else {
		if captures, err = core.CollectDPUTraces(cfg); err != nil {
			return err
		}
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		if err := core.SaveCaptures(f, captures); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("captures written to %s\n", *save)
	}
	res, err := core.EvaluateCaptures(cfg, captures)
	if err != nil {
		return err
	}
	return report.RenderTableIII(os.Stdout, res, core.SensitiveChannels(), durations)
}

func cmdRSA(args []string) error {
	fs := flag.NewFlagSet("rsa", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "experiment seed")
	samples := fs.Int("samples", 5000, "samples per key at 1 kHz")
	verify := fs.Bool("verify-datapath", false, "run the real modular arithmetic in the victim")
	if err := fs.Parse(args); err != nil {
		return err
	}
	noteRun(*seed, poolSize(0)) // the key shards run on GOMAXPROCS workers
	res, err := core.RSAHammingWeight(core.RSAConfig{
		Seed:           *seed,
		Samples:        *samples,
		VerifyDatapath: *verify,
	})
	if err != nil {
		return err
	}
	return report.RenderFig4(os.Stdout, res)
}

func cmdZoo() error {
	tab := &report.Table{
		Title:   "Vitis-AI-style model zoo (39 architectures, 7 families)",
		Headers: []string{"Model", "Family", "Input", "GMACs", "MParams", "Layers"},
	}
	for _, m := range dpu.Zoo() {
		tab.AddRow(m.Name, m.Family,
			fmt.Sprintf("%dx%d", m.InputH, m.InputW),
			fmt.Sprintf("%.2f", float64(m.TotalMACs())/1e9),
			fmt.Sprintf("%.1f", float64(m.ParamBytes())/1e6),
			fmt.Sprintf("%d", len(m.Layers)))
	}
	return tab.Render(os.Stdout)
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	model := fs.String("model", "ResNet-50", "zoo model to profile")
	top := fs.Int("top", 10, "longest layers to list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := dpu.ZooModel(*model)
	if err != nil {
		return err
	}
	p, err := dpu.ProfileModel(m)
	if err != nil {
		return err
	}
	return p.Render(os.Stdout, *top)
}

func cmdLeakage(args []string) error {
	fs := flag.NewFlagSet("leakage", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "experiment seed")
	samples := fs.Int("samples", 0, "samples per session (0 = default 2000)")
	ladder := fs.Bool("ladder", false, "assess the Montgomery-ladder victim")
	if err := fs.Parse(args); err != nil {
		return err
	}
	noteRun(*seed, 0)
	res, err := core.AssessRSALeakage(core.LeakageConfig{
		Seed:              *seed,
		SamplesPerSession: *samples,
		Countermeasure:    *ladder,
	})
	if err != nil {
		return err
	}
	victim := "square-and-multiply"
	if *ladder {
		victim = "Montgomery ladder"
	}
	fmt.Printf("TVLA fixed-vs-random, FPGA current, %s victim:\n", victim)
	fmt.Printf("  t = %+.1f (threshold 4.5)  leaks = %v\n", res.TVLA.T, res.TVLA.Leaks)
	fmt.Printf("  SNR across HW {1,512,1024} = %.2f\n", res.SNR)
	return nil
}

func cmdApplicability(args []string, profile *faults.Profile) error {
	fs := flag.NewFlagSet("applicability", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "experiment seed")
	parallel := fs.Int("parallel", 0, "workers for the per-board shards (0 = GOMAXPROCS; results are identical for any worker count)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := (runFlags{Parallel: *parallel}).validate(); err != nil {
		return err
	}
	noteRun(*seed, poolSize(*parallel))
	rows, err := core.Applicability(core.ApplicabilityConfig{
		Seed:        *seed,
		Parallelism: *parallel,
		Faults:      profile,
	})
	if err != nil {
		return err
	}
	return report.RenderApplicability(os.Stdout, rows)
}

func cmdRobustness(args []string) error {
	fs := flag.NewFlagSet("robustness", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "experiment seed")
	prof := fs.String("profile", "hostile", "fault profile to sweep")
	intensities := fs.String("intensities", "", "comma-separated scale factors (empty = 0,0.25,0.5,1,2)")
	models := fs.Int("models", 6, "zoo models in the reduced fingerprint run")
	traces := fs.Int("traces", 5, "traces per model")
	dur := fs.Duration("duration", time.Second, "capture duration")
	bits := fs.Int("bits", 32, "covert payload bits")
	parallel := fs.Int("parallel", 0, "workers for the sharded sub-experiments (0 = GOMAXPROCS; results are identical for any worker count)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := (runFlags{Parallel: *parallel}).validate(); err != nil {
		return err
	}
	noteRun(*seed, poolSize(*parallel))
	cfg := core.RobustnessConfig{
		Seed:           *seed,
		Profile:        *prof,
		Models:         *models,
		TracesPerModel: *traces,
		TraceDuration:  *dur,
		PayloadBits:    *bits,
		Parallelism:    *parallel,
	}
	if *intensities != "" {
		for _, s := range strings.Split(*intensities, ",") {
			var x float64
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%g", &x); err != nil {
				return fmt.Errorf("bad intensity %q: %v", s, err)
			}
			cfg.Intensities = append(cfg.Intensities, x)
		}
	}
	res, err := core.Robustness(cfg)
	if err != nil {
		return err
	}
	return report.RenderRobustness(os.Stdout, res)
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "board seed")
	dir := fs.String("dir", "sysfs-snapshot", "output directory")
	asRoot := fs.Bool("root", false, "export with the root credential")
	if err := fs.Parse(args); err != nil {
		return err
	}
	noteRun(*seed, 0)
	b, err := board.NewZCU102(board.Config{Seed: *seed})
	if err != nil {
		return err
	}
	b.Run(100 * time.Millisecond)
	cred := sysfs.Nobody
	if *asRoot {
		cred = sysfs.Root
	}
	if err := b.Sysfs().Export(*dir, cred); err != nil {
		return err
	}
	fmt.Printf("sysfs snapshot written to %s\n", *dir)
	return nil
}

func cmdCovert(args []string, profile *faults.Profile) error {
	fs := flag.NewFlagSet("covert", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "board seed")
	bits := fs.Int("bits", 128, "payload bits")
	symbol := fs.Int("symbol-updates", 1, "symbol duration in sensor updates")
	interval := fs.Duration("update-interval", 0, "sensor update interval override (root)")
	parallel := fs.Int("parallel", 0, "workers for the 32-bit payload chunk shards (0 = GOMAXPROCS; results are identical for any worker count)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := (runFlags{Parallel: *parallel}).validate(); err != nil {
		return err
	}
	noteRun(*seed, poolSize(*parallel))
	res, err := core.CovertTransmit(core.CovertConfig{
		Seed:           *seed,
		PayloadBits:    *bits,
		SymbolUpdates:  *symbol,
		UpdateInterval: *interval,
		Parallelism:    *parallel,
		Faults:         profile,
	})
	if err != nil {
		return err
	}
	fmt.Printf("covert channel: %d bits at %v/symbol -> %.1f bps, BER %.4f (%d errors)\n",
		res.BitsSent, res.SymbolPeriod, res.Throughput, res.BER(), res.BitErrors)
	return nil
}

func cmdMitigate(args []string) error {
	fs := flag.NewFlagSet("mitigate", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "board seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	noteRun(*seed, 0)
	res, err := core.Mitigation(*seed)
	if err != nil {
		return err
	}
	fmt.Printf("before mitigation: unprivileged attacker reads FPGA current = %.3f A\n", res.BeforeAttacker)
	fmt.Printf("after  mitigation: unprivileged read fails with: %v\n", res.AfterAttackerErr)
	fmt.Printf("after  mitigation: root monitoring still reads   = %.3f A\n", res.AfterRoot)
	fmt.Printf("mitigation effective: %v\n", res.Effective())
	return nil
}
