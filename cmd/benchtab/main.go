// Command benchtab regenerates every table and figure of the paper's
// evaluation on the simulated ZCU102 and prints them as text artifacts.
//
// Usage:
//
//	benchtab -exp all                 # everything, reduced budgets
//	benchtab -exp fig2 -samples 200   # Fig. 2 with more averaging
//	benchtab -exp table3 -traces 12   # Table III with more traces
//	benchtab -exp fig4 -paper-scale
//
// The -paper-scale flag raises the capture budgets to the paper's
// (10,000 samples per level for Fig. 2; 100,000 samples per key for
// Fig. 4); expect long runtimes. A budget flag the selected experiments
// do not read is a usage error, as is -samples with -paper-scale.
//
// Only the rendered artifacts go to stdout; the -ledger status line and
// errors go to stderr. For a fixed seed the output is byte-identical
// from run to run, and the goldens under testdata/ pin it together with
// each experiment's canonical run manifest. With -ledger the manifest
// also records each experiment's wall time and span totals.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/dpu"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/report"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main behind an exit code: 0 on success, 1 when an experiment
// or an output file fails, 2 on a usage error (reported before any
// experiment runs).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp        = fs.String("exp", "all", "experiment: table1|table2|fig2|fig3|table3|fig4|applicability|tvla|mitigation|all")
		seed       = fs.Int64("seed", 1, "root seed for every experiment")
		samples    = fs.Int("samples", 0, "samples per level (fig2) / per key (fig4); 0 = default budget")
		traces     = fs.Int("traces", 10, "traces per model for table3 (at least its cross-validation folds)")
		paperScale = fs.Bool("paper-scale", false, "use the paper's full capture budgets (slow)")
		parallel   = fs.Int("parallel", 0, "workers for sharded experiments (0 = GOMAXPROCS; results are identical for any worker count)")
		faultsName = fs.String("faults", "none", "fault profile injected into every simulated board of fig2, fig3, table3 and applicability (the other experiments take none): "+strings.Join(faults.PresetNames(), "|"))
		ledgerPath = fs.String("ledger", "", "append a run manifest to this JSONL run ledger")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	exit := func(code int, err error) int {
		fmt.Fprintf(stderr, "benchtab: %v\n", err)
		return code
	}
	switch *exp {
	case "table1", "table2", "fig2", "fig3", "table3", "fig4",
		"applicability", "tvla", "mitigation", "all":
	default:
		fmt.Fprintf(stderr, "benchtab: unknown experiment %q\n", *exp)
		fs.Usage()
		return 2
	}
	switch {
	case *samples < 0:
		return exit(2, fmt.Errorf("-samples must be >= 0 (got %d)", *samples))
	case *traces <= 0:
		return exit(2, fmt.Errorf("-traces must be > 0 (got %d)", *traces))
	case *parallel < 0:
		return exit(2, fmt.Errorf("-parallel must be >= 0 (got %d)", *parallel))
	}
	// Budget flags the selected experiments never read would be recorded
	// in the manifest as if they had shaped the run.
	tracesSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "traces" {
			tracesSet = true
		}
	})
	switch *exp {
	case "fig2", "fig4", "all":
	default:
		if *samples > 0 {
			return exit(2, fmt.Errorf("-samples does not apply to -exp %s (only fig2, fig4 and all read it)", *exp))
		}
		if *paperScale {
			return exit(2, fmt.Errorf("-paper-scale does not apply to -exp %s (only fig2, fig4 and all read it)", *exp))
		}
	}
	if *samples > 0 && *paperScale {
		return exit(2, errors.New("-samples and -paper-scale both set the capture budget; give one"))
	}
	if tracesSet && *exp != "table3" && *exp != "all" {
		return exit(2, fmt.Errorf("-traces does not apply to -exp %s (only table3 and all read it)", *exp))
	}
	profile, err := faults.Resolve(*faultsName, 1)
	if err != nil {
		return exit(2, err)
	}
	switch *exp {
	case "table1", "table2", "fig4", "tvla", "mitigation":
		// These experiments build no board that takes a fault profile; a
		// manifest recording one would claim abuse the run never saw.
		if profile != nil {
			return exit(2, fmt.Errorf("-faults %s does not apply to -exp %s (only fig2, fig3, table3, applicability and all take a profile)", *faultsName, *exp))
		}
	}

	table3 := core.FingerprintConfig{
		Seed:           *seed,
		TracesPerModel: *traces,
		Parallelism:    *parallel,
		Faults:         profile,
	}
	switch *exp {
	case "table3", "all":
		if err := table3.Validate(); err != nil {
			return exit(2, fmt.Errorf("-traces: %w", err))
		}
	}

	start := time.Now()
	var firstErr error
	var timings []ledger.Experiment
	experiment := func(name string, f func() error) {
		if firstErr != nil {
			return
		}
		switch *exp {
		case name, "all":
			before := obs.Default.Snapshot()
			if err := f(); err != nil {
				firstErr = fmt.Errorf("%s: %w", name, err)
				return
			}
			timings = append(timings, ledger.ExperimentFrom(name, before, obs.Default.Snapshot()))
			fmt.Fprintln(stdout)
		}
	}

	experiment("table1", func() error {
		return report.RenderTableI(stdout, board.Catalog())
	})
	experiment("table2", func() error {
		return report.RenderTableII(stdout, board.SensitiveSensors())
	})
	experiment("fig2", func() error {
		n := *samples
		if n == 0 {
			n = 20
		}
		if *paperScale {
			n = 10000
		}
		res, err := core.Characterize(core.CharacterizeConfig{
			Seed:            *seed,
			SamplesPerLevel: n,
			Parallelism:     *parallel,
			Faults:          profile,
		})
		if err != nil {
			return err
		}
		return report.RenderFig2(stdout, res)
	})
	experiment("fig3", func() error {
		channels := []core.Channel{
			{Label: board.SensorCPUFull, Kind: core.Current},
			{Label: board.SensorCPULow, Kind: core.Current},
			{Label: board.SensorFPGA, Kind: core.Current},
			{Label: board.SensorDDR, Kind: core.Current},
		}
		caps, err := core.CollectDPUTraces(core.FingerprintConfig{
			Seed:           *seed,
			Models:         dpu.Fig3Models(),
			TracesPerModel: 1,
			TraceDuration:  5 * time.Second,
			Durations:      []time.Duration{5 * time.Second},
			Folds:          1,
			Channels:       channels,
			Parallelism:    *parallel,
			Faults:         profile,
		})
		if err != nil {
			return err
		}
		return report.RenderFig3(stdout, caps, channels)
	})
	experiment("table3", func() error {
		res, err := core.Fingerprint(table3)
		if err != nil {
			return err
		}
		return report.RenderTableIII(stdout, res, core.SensitiveChannels(),
			[]time.Duration{time.Second, 2 * time.Second, 3 * time.Second,
				4 * time.Second, 5 * time.Second})
	})
	experiment("fig4", func() error {
		n := *samples
		if n == 0 {
			n = 5000
		}
		if *paperScale {
			n = 100000
		}
		res, err := core.RSAHammingWeight(core.RSAConfig{Seed: *seed, Samples: n, Parallelism: *parallel})
		if err != nil {
			return err
		}
		return report.RenderFig4(stdout, res)
	})
	experiment("applicability", func() error {
		rows, err := core.Applicability(core.ApplicabilityConfig{
			Seed:        *seed,
			Parallelism: *parallel,
			Faults:      profile,
		})
		if err != nil {
			return err
		}
		return report.RenderApplicability(stdout, rows)
	})
	experiment("tvla", func() error {
		plain, err := core.AssessRSALeakage(core.LeakageConfig{Seed: *seed})
		if err != nil {
			return err
		}
		ladder, err := core.AssessRSALeakage(core.LeakageConfig{Seed: *seed, Countermeasure: true})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "TVLA fixed-vs-random over FPGA current:\n")
		fmt.Fprintf(stdout, "  square-and-multiply victim: t=%+.1f leaks=%v SNR=%.0f\n",
			plain.TVLA.T, plain.TVLA.Leaks, plain.SNR)
		fmt.Fprintf(stdout, "  Montgomery-ladder victim:   t=%+.1f leaks=%v SNR=%.2f\n",
			ladder.TVLA.T, ladder.TVLA.Leaks, ladder.SNR)
		return nil
	})
	experiment("mitigation", func() error {
		res, err := core.Mitigation(*seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Mitigation (Sec. V): before: attacker reads %.3f A; after restriction: attacker error %q; root still reads %.3f A; effective=%v\n",
			res.BeforeAttacker, res.AfterAttackerErr, res.AfterRoot, res.Effective())
		return nil
	})
	if firstErr != nil {
		return exit(1, firstErr)
	}

	if *ledgerPath != "" {
		faultProfile := ""
		intensity := 0.0
		if profile != nil {
			faultProfile = *faultsName
			intensity = 1
		}
		workers := *parallel
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		m := ledger.New(ledger.RunInfo{
			Tool:           "benchtab",
			Command:        *exp,
			Args:           args,
			Board:          "zcu102",
			Seed:           *seed,
			FaultProfile:   faultProfile,
			FaultIntensity: intensity,
			Workers:        workers,
			Started:        start,
			Wall:           time.Since(start),
			Experiments:    timings,
		}, obs.Default.Snapshot())
		if err := ledger.Append(*ledgerPath, m); err != nil {
			return exit(1, err)
		}
		fmt.Fprintf(stderr, "run manifest appended to %s\n", *ledgerPath)
	}
	return 0
}
