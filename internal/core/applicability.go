package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/board"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/sysfs"
	"repro/internal/virus"
)

// ApplicabilityConfig parameterizes the cross-board experiment backing
// the paper's Table I claim: AmpereBleed works on every surveyed board
// because they all carry unprivileged INA226 sensors.
type ApplicabilityConfig struct {
	// Seed for the whole experiment. Zero means 1.
	Seed int64
	// Levels of the mini activity sweep per board; zero means 11.
	Levels int
	// SamplesPerLevel of hwmon updates averaged per level; zero means 10.
	SamplesPerLevel int
	// Parallelism is the worker count the per-board shards run on; zero
	// means GOMAXPROCS. Each board simulates on its own engine with a
	// seed derived from Seed and the board name, so the survey's rows
	// are bit-identical for every worker count.
	Parallelism int
	// Faults optionally injects a fault profile into every board's
	// sensor stack; the sweep then samples through the resilient layer
	// (retry, backoff, gap skipping) instead of aborting on first error.
	Faults *faults.Profile
}

// BoardApplicability is one board's outcome.
type BoardApplicability struct {
	// Board is the catalog name.
	Board string
	// Family of the board.
	Family string
	// Sensors discovered by the unprivileged attacker.
	Sensors int
	// CurrentPearson correlates unprivileged FPGA-current readings with
	// the victim activity level.
	CurrentPearson float64
	// VoltageInBand reports that the stabilized supply never left the
	// family's band during the sweep (the defense that does not help).
	VoltageInBand bool
}

// Applicability sweeps a power-virus victim on every Table I board and
// measures the current channel's response through unprivileged hwmon
// reads. The attack is "applicable" to a board when discovery works and
// the current channel tracks the victim level.
func Applicability(cfg ApplicabilityConfig) ([]BoardApplicability, error) {
	cfg, err := normalizeApplicability(cfg)
	if err != nil {
		return nil, err
	}

	catalog := board.Catalog()
	shards := make([]runner.Shard[BoardApplicability], len(catalog))
	for i, spec := range catalog {
		spec := spec
		shards[i] = runner.Shard[BoardApplicability]{
			Key: "applicability/" + spec.Name,
			Run: func(ctx context.Context, info runner.Info) (BoardApplicability, error) {
				return applicabilityOne(ctx, cfg, spec)
			},
		}
	}
	results, err := runner.Run(context.Background(), runner.Config{
		Name:    "applicability",
		Seed:    cfg.Seed,
		Workers: cfg.Parallelism,
	}, shards)
	if err != nil {
		return nil, err
	}
	if err := runner.FirstErr(results); err != nil {
		return nil, err
	}
	return runner.Values(results), nil
}

func normalizeApplicability(cfg ApplicabilityConfig) (ApplicabilityConfig, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Levels == 0 {
		cfg.Levels = 11
	}
	if cfg.Levels < 2 {
		return cfg, errors.New("core: need at least two levels")
	}
	if cfg.SamplesPerLevel == 0 {
		cfg.SamplesPerLevel = 10
	}
	if cfg.SamplesPerLevel < 1 {
		return cfg, errors.New("core: non-positive samples per level")
	}
	return cfg, nil
}

func applicabilityOne(ctx context.Context, cfg ApplicabilityConfig, spec board.Spec) (BoardApplicability, error) {
	b, err := board.Wire(spec, board.Config{
		Seed:   captureSeed(cfg.Seed, "applicability/"+spec.Name, 0),
		Faults: cfg.Faults,
	})
	if err != nil {
		return BoardApplicability{}, err
	}
	span := obs.StartSpan("core.applicability_board", b.Engine())
	defer span.End()
	array, err := virus.New(virus.Config{Groups: cfg.Levels - 1})
	if err != nil {
		return BoardApplicability{}, err
	}
	if err := array.Deploy(b.Fabric()); err != nil {
		return BoardApplicability{}, err
	}

	attacker, err := NewAttacker(b.Sysfs(), sysfs.Nobody)
	if err != nil {
		return BoardApplicability{}, err
	}
	sensors, err := attacker.Discover()
	if err != nil {
		return BoardApplicability{}, err
	}
	dev, err := b.Sensor(board.SensorFPGA)
	if err != nil {
		return BoardApplicability{}, err
	}
	interval := dev.UpdateInterval()
	// The current sampler owns the sampling cadence; the voltage sampler
	// piggybacks on it with Read (no extra interval advance), matching
	// the classic one-interval-per-iteration loop.
	sampI, err := NewSampler(b, attacker, Channel{Label: board.SensorFPGA, Kind: Current}, interval)
	if err != nil {
		return BoardApplicability{}, err
	}
	sampV, err := NewSampler(b, attacker, Channel{Label: board.SensorFPGA, Kind: Voltage}, interval)
	if err != nil {
		return BoardApplicability{}, err
	}

	levels := make([]float64, 0, cfg.Levels)
	current := make([]float64, 0, cfg.Levels)
	inBand := true
	for level := 0; level < cfg.Levels; level++ {
		if err := ctx.Err(); err != nil {
			return BoardApplicability{}, err
		}
		if err := array.SetActiveGroups(level); err != nil {
			return BoardApplicability{}, err
		}
		b.Run(3 * interval) // flush the previous level
		var sum float64
		var got int
		for s := 0; s < cfg.SamplesPerLevel; s++ {
			v, err := sampI.Sample(ctx)
			switch {
			case errors.Is(err, ErrSampleLost):
				// Gap: the level mean uses the samples that survived.
			case err != nil:
				return BoardApplicability{}, err
			default:
				sum += v
				got++
			}
			volts, err := sampV.Read(ctx)
			if errors.Is(err, ErrSampleLost) {
				continue
			}
			if err != nil {
				return BoardApplicability{}, err
			}
			if !spec.VoltageBand.Contains(volts) {
				inBand = false
			}
		}
		if got == 0 {
			continue // the whole level was lost: drop it from the fit
		}
		levels = append(levels, float64(level))
		current = append(current, sum/float64(got))
	}
	if len(levels) < 2 {
		return BoardApplicability{}, fmt.Errorf(
			"core: %s: only %d of %d activity levels survived fault injection",
			spec.Name, len(levels), cfg.Levels)
	}
	pearson, err := stats.Pearson(levels, current)
	if err != nil {
		return BoardApplicability{}, err
	}
	return BoardApplicability{
		Board:          spec.Name,
		Family:         spec.Family,
		Sensors:        len(sensors),
		CurrentPearson: pearson,
		VoltageInBand:  inBand,
	}, nil
}
