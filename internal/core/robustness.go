package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/board"
	"repro/internal/faults"
	"repro/internal/obs"
)

// RobustnessConfig parameterizes the accuracy-vs-fault-rate experiment:
// one fault profile swept over a list of intensities, with a reduced
// applicability survey, fingerprinting run, and covert transmission at
// each point.
type RobustnessConfig struct {
	// Seed for the whole experiment. Zero means 1.
	Seed int64
	// Profile is the fault preset to sweep; empty means "hostile".
	Profile string
	// Intensities scales the profile per point; empty means
	// {0, 0.25, 0.5, 1, 2}. Intensity 0 is the fault-free baseline.
	Intensities []float64
	// Parallelism for the sub-experiments; zero means GOMAXPROCS.
	Parallelism int

	// Reduced sub-experiment budgets (the full Table III grid at five
	// intensities would be prohibitive). Zeros mean 6 models, 5 traces
	// per model, 1 s captures, 5-fold CV, and a 32-bit covert payload.
	Models         int
	TracesPerModel int
	TraceDuration  time.Duration
	Folds          int
	PayloadBits    int
}

// RobustnessPoint is the outcome at one fault intensity.
type RobustnessPoint struct {
	// Intensity is the profile scale factor of this point.
	Intensity float64
	// ApplicabilityPearson is the mean FPGA-current Pearson across the
	// board survey.
	ApplicabilityPearson float64
	// FingerprintTop1 is the reduced run's top-1 accuracy.
	FingerprintTop1 float64
	// CovertBER is the covert transmission's bit error rate.
	CovertBER float64
	// InjectedFaults are the faults.injected.* counter deltas of this
	// point, keyed by fault kind.
	InjectedFaults map[string]int64
	// Retries and Gaps are the sampling layer's counter deltas.
	Retries, Gaps int64
}

// RobustnessResult is the full accuracy-vs-fault-rate curve.
type RobustnessResult struct {
	// Profile is the swept preset's name.
	Profile string
	// Points in ascending intensity order.
	Points []RobustnessPoint
	// Classes is the fingerprinting class count (random-guess baseline
	// = 1/Classes).
	Classes int
}

func (cfg *RobustnessConfig) fillDefaults() {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Profile == "" {
		cfg.Profile = "hostile"
	}
	if len(cfg.Intensities) == 0 {
		cfg.Intensities = []float64{0, 0.25, 0.5, 1, 2}
	}
	if cfg.Models == 0 {
		cfg.Models = 6
	}
	if cfg.TracesPerModel == 0 {
		cfg.TracesPerModel = 5
	}
	if cfg.TraceDuration == 0 {
		cfg.TraceDuration = time.Second
	}
	if cfg.Folds == 0 {
		cfg.Folds = 5
	}
	if cfg.PayloadBits == 0 {
		cfg.PayloadBits = 32
	}
}

// faultCounterDelta subtracts the faults.injected.* counters of two
// snapshots, keeping only kinds that actually fired.
func faultCounterDelta(before, after obs.Snapshot) map[string]int64 {
	const prefix = "faults.injected."
	out := make(map[string]int64)
	for name, v := range after.Counters {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		if d := v - before.Counter(name); d > 0 {
			out[strings.TrimPrefix(name, prefix)] = d
		}
	}
	return out
}

// Robustness sweeps one fault profile across intensities and measures
// how gracefully the three headline analyses degrade. At intensity 0
// the numbers must match the fault-free pipeline; at the profile's
// nominal intensity they should be degraded but well above chance.
func Robustness(cfg RobustnessConfig) (*RobustnessResult, error) {
	cfg.fillDefaults()
	base, err := faults.Preset(cfg.Profile)
	if err != nil {
		return nil, err
	}
	fpBase := FingerprintConfig{
		Seed:           cfg.Seed,
		TracesPerModel: cfg.TracesPerModel,
		TraceDuration:  cfg.TraceDuration,
		Durations:      []time.Duration{cfg.TraceDuration},
		Channels:       []Channel{{Label: board.SensorFPGA, Kind: Current}},
		Folds:          cfg.Folds,
		Parallelism:    cfg.Parallelism,
	}
	fpBase.fillDefaults()
	if cfg.Models < len(fpBase.Models) {
		fpBase.Models = fpBase.Models[:cfg.Models]
	}
	if fpBase.TracesPerModel < fpBase.Folds {
		fpBase.Folds = fpBase.TracesPerModel
	}

	res := &RobustnessResult{Profile: cfg.Profile}
	intensities := append([]float64(nil), cfg.Intensities...)
	sort.Float64s(intensities)
	for _, intensity := range intensities {
		profile, err := base.Scale(intensity)
		if err != nil {
			return nil, err
		}
		var pf *faults.Profile
		if profile.Enabled() {
			pf = &profile
		}
		before := obs.Default.Snapshot()

		rows, err := Applicability(ApplicabilityConfig{
			Seed:        cfg.Seed,
			Parallelism: cfg.Parallelism,
			Faults:      pf,
		})
		if err != nil {
			return nil, fmt.Errorf("core: robustness applicability @ %g: %w", intensity, err)
		}
		if len(rows) == 0 {
			return nil, errors.New("core: robustness: empty board survey")
		}
		var pearson float64
		for _, r := range rows {
			pearson += r.CurrentPearson
		}
		pearson /= float64(len(rows))

		fpCfg := fpBase
		fpCfg.Faults = pf
		fp, err := Fingerprint(fpCfg)
		if err != nil {
			return nil, fmt.Errorf("core: robustness fingerprint @ %g: %w", intensity, err)
		}
		cell, err := fp.Cell(fpCfg.Channels[0], cfg.TraceDuration)
		if err != nil {
			return nil, err
		}
		res.Classes = fp.Classes

		cov, err := CovertTransmit(CovertConfig{
			Seed:        cfg.Seed,
			PayloadBits: cfg.PayloadBits,
			Parallelism: cfg.Parallelism,
			Faults:      pf,
		})
		if err != nil {
			return nil, fmt.Errorf("core: robustness covert @ %g: %w", intensity, err)
		}

		after := obs.Default.Snapshot()
		res.Points = append(res.Points, RobustnessPoint{
			Intensity:            intensity,
			ApplicabilityPearson: pearson,
			FingerprintTop1:      cell.Top1,
			CovertBER:            cov.BER(),
			InjectedFaults:       faultCounterDelta(before, after),
			Retries:              after.Counter("core.sampler.retries") - before.Counter("core.sampler.retries"),
			Gaps:                 after.Counter("core.sampler.gaps") - before.Counter("core.sampler.gaps"),
		})
	}
	return res, nil
}
