package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/board"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/obs/top"
	"repro/internal/sysfs"
)

// cmdTop is the live terminal dashboard. With -addr it polls the
// /metrics/snapshot endpoint of a running `amperebleed -obs-addr ...`
// process (any command, even in another terminal or machine); without
// -addr it runs a small in-process demo workload — one pass through
// every pipeline stage the panels cover — and polls the Default
// registry. Either way one snapshot is drawn per -interval tick.
func cmdTop(args []string, profile *faults.Profile) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "", "host:port or URL of a running -obs-addr server (empty = in-process demo workload)")
	interval := fs.Duration("interval", time.Second, "dashboard refresh interval")
	once := fs.Bool("once", false, "render a single frame and exit (no ANSI cursor control)")
	seed := fs.Int64("seed", 1, "demo workload seed (in-process mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := (runFlags{Top: true, TopInterval: *interval}).validate(); err != nil {
		return err
	}
	noteRun(*seed, 0)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	// fetch reads one snapshot from wherever the dashboard points; done
	// reports the in-process demo's end (nil for a remote server, which
	// the dashboard watches until interrupted).
	var (
		source string
		fetch  func() (obs.Snapshot, error)
		done   chan error
	)
	if *addr != "" {
		source = *addr
		if !strings.Contains(source, "://") {
			source = "http://" + source
		}
		fetch = func() (obs.Snapshot, error) { return top.FetchSnapshot(ctx, source) }
	} else {
		source = "in-process demo"
		fetch = func() (obs.Snapshot, error) { return obs.Default.Snapshot(), nil }
		if *once {
			if err := topDemo(ctx, *seed, profile); err != nil {
				return err
			}
		} else {
			done = make(chan error, 1)
			go func() { done <- topDemo(ctx, *seed, profile) }()
		}
	}

	if *once {
		snap, err := fetch()
		if err != nil {
			return err
		}
		return printFrame(snap, source)
	}

	sc := top.NewScreen(os.Stdout)
	defer sc.Close()
	var prev *obs.Snapshot
	draw := func() error {
		s, err := fetch()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		sc.Draw(top.Frame(s, prev, top.Options{Source: source}))
		prev = &s
		return nil
	}
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	// An immediate first frame: a dashboard attaching mid-run should not
	// stare at a blank screen for one full interval.
	if err := draw(); err != nil {
		return err
	}
	for {
		select {
		case <-ctx.Done():
			return nil
		case err := <-done:
			if derr := draw(); err == nil {
				err = derr
			}
			return err
		case <-ticker.C:
			if err := draw(); err != nil {
				return err
			}
		}
	}
}

// printFrame renders one dashboard frame as plain text (for -once).
func printFrame(s obs.Snapshot, source string) error {
	for _, l := range top.Frame(s, nil, top.Options{Source: source}) {
		if _, err := fmt.Println(l); err != nil {
			return err
		}
	}
	return nil
}

// topDemo exercises every pipeline stage the dashboard panels cover,
// sized to finish in a few seconds: a resilient sampling loop on the
// FPGA rail, a TVLA leakage assessment, a covert transmission, and a
// sharded characterize sweep for the runner panel. The global fault
// profile applies throughout, so `-faults hostile top` shows the fault
// counters moving.
func topDemo(ctx context.Context, seed int64, profile *faults.Profile) error {
	b, err := board.NewZCU102(board.Config{Seed: seed, Faults: profile})
	if err != nil {
		return err
	}
	b.Run(100 * time.Millisecond)
	atk, err := core.NewAttacker(b.Sysfs(), sysfs.Nobody)
	if err != nil {
		return err
	}
	dev, err := b.Sensor(board.SensorFPGA)
	if err != nil {
		return err
	}
	smp, err := core.NewSampler(b, atk,
		core.Channel{Label: board.SensorFPGA, Kind: core.Current}, dev.UpdateInterval())
	if err != nil {
		return err
	}
	rateHist := obs.H("attacker.sample_rate_hz")
	last := b.Engine().Now()
	for i := 0; i < 200; i++ {
		if _, err := smp.Sample(ctx); err != nil && !errors.Is(err, core.ErrSampleLost) {
			return err
		}
		now := b.Engine().Now()
		if dt := now - last; dt > 0 {
			rateHist.Observe(1 / dt.Seconds())
		}
		last = now
	}

	if _, err := core.AssessRSALeakage(core.LeakageConfig{
		Seed: seed, SamplesPerSession: 400,
	}); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	if _, err := core.CovertTransmit(core.CovertConfig{
		Seed: seed, PayloadBits: 32, Faults: profile,
	}); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	if _, err := core.Characterize(core.CharacterizeConfig{
		Seed: seed, Levels: 9, SamplesPerLevel: 5, Parallelism: 2, Faults: profile,
	}); err != nil {
		return err
	}
	return ctx.Err()
}
