package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/board"
	"repro/internal/faults"
	"repro/internal/leakage"
	"repro/internal/power"
	"repro/internal/ro"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/sysfs"
	"repro/internal/virus"
)

// CharacterizeConfig parameterizes the Fig. 2 experiment: sweep the
// power-virus activation level and record what every channel sees.
type CharacterizeConfig struct {
	// Seed for the whole experiment. Zero means 1.
	Seed int64
	// Levels is the number of activation levels including zero; zero
	// means the paper's 161 (0..160 groups).
	Levels int
	// SamplesPerLevel is how many hwmon updates to average per level.
	// The paper collects 10,000; the default here is 50, which already
	// pins the per-level mean far below one LSB of spread (documented in
	// EXPERIMENTS.md).
	SamplesPerLevel int
	// WarmupUpdates discarded after each level switch; zero means 3.
	WarmupUpdates int
	// DisableStabilizer runs the FPGA rail unregulated — the ablation
	// that shows why crafted-circuit attacks needed a fluctuating PDN:
	// without the stabilizer the RO channel's variation explodes.
	DisableStabilizer bool
	// Parallelism is the worker count the per-level shards run on; zero
	// means GOMAXPROCS. Every level is measured on its own freshly wired
	// board (seed derived from Seed and the level key), so results are
	// bit-identical for any worker count.
	Parallelism int
	// Faults optionally injects a fault profile into the rig; level
	// means then average whichever samples survive.
	Faults *faults.Profile
}

// LevelReading is the averaged observation at one activation level.
type LevelReading struct {
	// ActiveGroups is the victim activation level.
	ActiveGroups int
	// CurrentAmps, BusVolts, PowerWatts are the hwmon-channel means.
	CurrentAmps float64
	BusVolts    float64
	PowerWatts  float64
	// ROCount is the mean ring-oscillator count per sampling window.
	ROCount float64
	// CurrentSamples are the individual current reads behind CurrentAmps
	// (finite samples only; injected faults shrink the set). They feed
	// the sweep's leakage SNR, which treats each level as one group.
	CurrentSamples []float64
}

// ChannelFit summarizes one channel's response across the sweep.
type ChannelFit struct {
	// Pearson correlation of the channel against the activation level.
	Pearson float64
	// LSBPerLevel is the fitted slope expressed in channel LSBs per
	// activation step (Fig. 2 quotes ~40 for current, 1-2 for power).
	LSBPerLevel float64
	// RelativeVariation is (max-min)/mean of the per-level means, the
	// "variation" measure behind the paper's 261× claim.
	RelativeVariation float64
}

// CharacterizeResult is the Fig. 2 dataset.
type CharacterizeResult struct {
	// Readings per level, in level order.
	Readings []LevelReading
	// Fits per channel.
	Current, Voltage, Power, RO ChannelFit
	// VariationRatio is current's relative variation over RO's — the
	// paper reports 261×.
	VariationRatio float64
	// SNR is the leakage signal-to-noise ratio of the current channel
	// with each activation level as one labelled group: between-level
	// variance over mean within-level variance. Zero when too few
	// samples survived faults to form at least two 2-sample groups.
	SNR float64
}

// DefaultCharacterizeLevels is the sweep size a zero
// CharacterizeConfig.Levels selects: the paper's 161 activation levels
// (0..160 groups). Exported so job planners can expand the shard list
// without wiring a board.
const DefaultCharacterizeLevels = virus.DefaultGroups + 1

// Channel LSBs used to express slopes (Sec. III-C).
const (
	currentLSB = 1e-3    // 1 mA
	voltageLSB = 1.25e-3 // 1.25 mV
	powerLSB   = 25e-3   // 25 mW
)

// normalizeCharacterize applies the documented defaults and validates;
// Characterize and the job-engine per-level entry point share it so a
// supervised sweep measures exactly what the unsupervised one does.
func normalizeCharacterize(cfg CharacterizeConfig) (CharacterizeConfig, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Levels == 0 {
		cfg.Levels = DefaultCharacterizeLevels
	}
	if cfg.Levels < 2 {
		return cfg, errors.New("core: need at least two levels")
	}
	if cfg.SamplesPerLevel == 0 {
		cfg.SamplesPerLevel = 50
	}
	if cfg.SamplesPerLevel < 1 {
		return cfg, errors.New("core: non-positive samples per level")
	}
	if cfg.WarmupUpdates == 0 {
		cfg.WarmupUpdates = 3
	}
	return cfg, nil
}

// CharacterizeLevelKey is the canonical shard key of one activation
// level — the string both Characterize and the supervised job engine
// hash with runner.ShardSeed, so either derives the same per-level
// board seed from the same campaign seed.
func CharacterizeLevelKey(level int) string {
	return fmt.Sprintf("characterize/level/%d", level)
}

// CharacterizeLevel measures a single activation level on its own
// freshly wired board, exactly as one shard of Characterize:
// seed should be runner.ShardSeed(cfg.Seed, CharacterizeLevelKey(level)).
// It is the per-shard unit the supervised job engine checkpoints.
func CharacterizeLevel(cfg CharacterizeConfig, seed int64, level int) (LevelReading, error) {
	cfg, err := normalizeCharacterize(cfg)
	if err != nil {
		return LevelReading{}, err
	}
	if level < 0 || level >= cfg.Levels {
		return LevelReading{}, fmt.Errorf("core: level %d outside sweep of %d levels", level, cfg.Levels)
	}
	return measureLevel(cfg, seed, level)
}

// FitCharacterize aggregates per-level readings (in level order) into
// the Fig. 2 result. It tolerates a partial sweep — quarantined levels
// simply don't contribute — as long as at least two levels survive.
func FitCharacterize(readings []LevelReading) (*CharacterizeResult, error) {
	if len(readings) < 2 {
		return nil, fmt.Errorf("core: only %d level readings survived, need at least 2 to fit", len(readings))
	}
	return fitCharacterize(readings)
}

// Characterize runs the Fig. 2 sweep: one shard per activation level,
// each on its own board seeded from the campaign seed and the level
// key, so the sweep carries no cross-level state. It is the unsupervised
// form of the sweep jobs.Characterize checkpoints.
func Characterize(cfg CharacterizeConfig) (*CharacterizeResult, error) {
	cfg, err := normalizeCharacterize(cfg)
	if err != nil {
		return nil, err
	}
	shards := make([]runner.Shard[LevelReading], cfg.Levels)
	for level := range shards {
		shards[level] = runner.Shard[LevelReading]{
			Key: CharacterizeLevelKey(level),
			Run: func(ctx context.Context, info runner.Info) (LevelReading, error) {
				return CharacterizeLevel(cfg, info.Seed, level)
			},
		}
	}
	results, err := runner.Run(context.Background(), runner.Config{
		Name:    "characterize",
		Seed:    cfg.Seed,
		Workers: cfg.Parallelism,
	}, shards)
	if err != nil {
		return nil, err
	}
	if err := runner.FirstErr(results); err != nil {
		return nil, err
	}
	return fitCharacterize(runner.Values(results))
}

// measureLevel wires a fresh board with the victim, the RO baseline and
// unprivileged hwmon probes, sets one activation level, lets the sensor
// windows flush, and averages the configured number of hwmon updates on
// every channel.
func measureLevel(cfg CharacterizeConfig, seed int64, level int) (LevelReading, error) {
	// --- Victim side: deploy the virus bitstream and the RO baseline. ---
	b, err := board.NewZCU102(board.Config{
		Seed:              seed,
		DisableStabilizer: cfg.DisableStabilizer,
		Faults:            cfg.Faults,
	})
	if err != nil {
		return LevelReading{}, err
	}
	array, err := virus.New(virus.Config{Groups: cfg.Levels - 1})
	if err != nil {
		return LevelReading{}, err
	}
	if err := array.Deploy(b.Fabric()); err != nil {
		return LevelReading{}, err
	}
	fpgaRail, err := b.Rail(board.RailFPGA)
	if err != nil {
		return LevelReading{}, err
	}
	bank, err := ro.New(roBaseline(b, fpgaRail))
	if err != nil {
		return LevelReading{}, err
	}
	if err := bank.Deploy(b.Fabric()); err != nil {
		return LevelReading{}, err
	}

	// --- Attacker side: unprivileged hwmon samplers on the FPGA sensor.
	// The current sampler owns the cadence; voltage and power piggyback
	// with Read so each iteration still advances exactly one interval. ---
	attacker, err := NewAttacker(b.Sysfs(), sysfs.Nobody)
	if err != nil {
		return LevelReading{}, err
	}
	dev, err := b.Sensor(board.SensorFPGA)
	if err != nil {
		return LevelReading{}, err
	}
	interval := dev.UpdateInterval()
	kinds := []Kind{Current, Voltage, Power}
	samplers := make([]*Sampler, len(kinds))
	for j, k := range kinds {
		if samplers[j], err = NewSampler(b, attacker, Channel{Label: board.SensorFPGA, Kind: k}, interval); err != nil {
			return LevelReading{}, err
		}
	}

	// --- Measurement. ---
	if err := array.SetActiveGroups(level); err != nil {
		return LevelReading{}, err
	}
	// Let the sensor windows settle on the level.
	b.Run(time.Duration(cfg.WarmupUpdates) * interval)
	bank.Sample() // discard counts accumulated during warmup

	// The level's reads count on the engine's tally and publish when
	// the level returns, not once per read between the samplers' runs.
	tally := b.Engine().Tally()
	defer tally.End(tally.Begin())
	ctx := context.Background()
	var sum, got [3]float64
	var sumR float64
	curSamples := make([]float64, 0, cfg.SamplesPerLevel)
	for s := 0; s < cfg.SamplesPerLevel; s++ {
		for j, sp := range samplers {
			var v float64
			var err error
			if j == 0 {
				v, err = sp.Sample(ctx) // advances the interval
			} else {
				v, err = sp.Read(ctx)
			}
			if errors.Is(err, ErrSampleLost) {
				continue
			}
			if err != nil {
				return LevelReading{}, err
			}
			sum[j] += v
			got[j]++
			if j == 0 {
				curSamples = append(curSamples, v)
			}
		}
		sumR += bank.SampleMean()
	}
	for j, k := range kinds {
		if got[j] == 0 {
			return LevelReading{}, fmt.Errorf("core: level %d: every %s sample lost", level, k)
		}
		sum[j] /= got[j]
	}
	return LevelReading{
		ActiveGroups:   level,
		CurrentAmps:    sum[0],
		BusVolts:       sum[1],
		PowerWatts:     sum[2],
		ROCount:        sumR / float64(cfg.SamplesPerLevel),
		CurrentSamples: curSamples,
	}, nil
}

// roBaseline configures the Fig. 2 ring-oscillator bank on the FPGA
// rail, with its jitter on the board's private "ro-bank" stream.
func roBaseline(b *board.SoC, fpgaRail *power.Rail) ro.Config {
	return ro.Config{
		BaseHz:       400e6,
		NominalVolts: fpgaRail.NominalVoltage(),
		// 1.27%/10 mV supply sensitivity, the calibration point that puts
		// the current/RO variation ratio at the paper's 261×.
		VoltSensitivity:           1.27,
		Volts:                     fpgaRail.Voltage,
		LocalDroopVoltsPerElement: 2e-9,
		JitterHz:                  50e3,
		Rand:                      b.Engine().Stream("ro-bank"),
	}
}

// fitCharacterize turns the per-level readings into the Fig. 2 channel
// fits and variation ratio.
func fitCharacterize(readings []LevelReading) (*CharacterizeResult, error) {
	res := &CharacterizeResult{Readings: readings}
	levels := make([]float64, 0, len(readings))
	cur := make([]float64, 0, len(readings))
	vol := make([]float64, 0, len(readings))
	pow := make([]float64, 0, len(readings))
	roc := make([]float64, 0, len(readings))
	for _, r := range readings {
		levels = append(levels, float64(r.ActiveGroups))
		cur = append(cur, r.CurrentAmps)
		vol = append(vol, r.BusVolts)
		pow = append(pow, r.PowerWatts)
		roc = append(roc, r.ROCount)
	}

	var err error
	if res.Current, err = fitChannel(levels, cur, currentLSB); err != nil {
		return nil, fmt.Errorf("core: current fit: %w", err)
	}
	if res.Voltage, err = fitChannel(levels, vol, voltageLSB); err != nil {
		return nil, fmt.Errorf("core: voltage fit: %w", err)
	}
	if res.Power, err = fitChannel(levels, pow, powerLSB); err != nil {
		return nil, fmt.Errorf("core: power fit: %w", err)
	}
	if res.RO, err = fitChannel(levels, roc, 1); err != nil {
		return nil, fmt.Errorf("core: RO fit: %w", err)
	}
	if res.RO.RelativeVariation > 0 {
		res.VariationRatio = res.Current.RelativeVariation / res.RO.RelativeVariation
	}
	// Leakage SNR of the current channel, one group per level. Faults can
	// shrink a level below the two samples a variance needs; such levels
	// drop out rather than aborting the sweep.
	groups := make([][]float64, 0, len(readings))
	for _, r := range readings {
		if len(r.CurrentSamples) >= 2 {
			groups = append(groups, r.CurrentSamples)
		}
	}
	if len(groups) >= 2 {
		snr, err := leakage.SNR(groups)
		if err != nil {
			return nil, fmt.Errorf("core: leakage snr: %w", err)
		}
		res.SNR = snr
	}
	return res, nil
}

func fitChannel(levels, values []float64, lsb float64) (ChannelFit, error) {
	pearson, err := stats.Pearson(levels, values)
	if errors.Is(err, stats.ErrDegenerate) {
		// A channel flattened entirely by quantization carries no
		// information about the level: report zero correlation.
		pearson = 0
	} else if err != nil {
		return ChannelFit{}, err
	}
	fit, err := stats.FitLine(levels, values)
	if err != nil {
		return ChannelFit{}, err
	}
	rng, err := stats.Range(values)
	if err != nil {
		return ChannelFit{}, err
	}
	mean := stats.MustMean(values)
	cf := ChannelFit{
		Pearson:     pearson,
		LSBPerLevel: fit.Slope / lsb,
	}
	if mean != 0 {
		cf.RelativeVariation = rng / mean
	}
	return cf, nil
}
