package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/runner"
)

// CharacterizeKind is the kind of a supervised Fig. 2 sweep, the one
// experiment the engine runs. Every checkpoint `characterize
// -checkpoint` writes carries it.
const CharacterizeKind = "characterize"

// characterizeBoard is the board every checkpoint records: the sweep
// runs on the simulated ZCU102.
const characterizeBoard = "zcu102"

// CharacterizeConfig is the spec.Config payload of a characterize job:
// the subset of core.CharacterizeConfig that isn't already spec
// identity (seed, faults) or execution detail (parallelism).
type CharacterizeConfig struct {
	Levels            int  `json:"levels,omitempty"`
	SamplesPerLevel   int  `json:"samples_per_level,omitempty"`
	WarmupUpdates     int  `json:"warmup_updates,omitempty"`
	DisableStabilizer bool `json:"disable_stabilizer,omitempty"`
}

// Characterize runs spec as a supervised Fig. 2 sweep, one shard per
// activation level, and fits the levels that completed. Each shard
// calls core.CharacterizeLevel with its runner.ShardSeed and records
// the reading as JSON, so a supervised or resumed sweep measures
// bit-identical values to core.Characterize at the same seed.
// Quarantined levels are left out of the fit. The outcome is returned
// even when the run fails, so callers can report its lineage.
func Characterize(ctx context.Context, spec Spec) (*Outcome, *core.CharacterizeResult, error) {
	ccfg, err := characterizeCore(spec)
	if err != nil {
		return nil, nil, err
	}
	levels := ccfg.Levels
	if levels == 0 {
		levels = core.DefaultCharacterizeLevels
	}
	if levels < 2 {
		return nil, nil, errors.New("jobs: characterize needs at least two levels")
	}
	keys := make([]string, levels)
	for level := range keys {
		keys[level] = core.CharacterizeLevelKey(level)
	}
	out, err := Run(ctx, spec, keys, func(ctx context.Context, info runner.Info) (json.RawMessage, error) {
		level, err := levelFromKey(info.Key)
		if err != nil {
			return nil, err
		}
		reading, err := core.CharacterizeLevel(ccfg, info.Seed, level)
		if err != nil {
			return nil, err
		}
		return json.Marshal(reading)
	})
	if err != nil {
		return out, nil, err
	}
	readings := make([]core.LevelReading, 0, len(out.Results))
	for _, key := range out.Keys {
		data, ok := out.Results[key]
		if !ok {
			continue // quarantined level: fit what survived
		}
		var r core.LevelReading
		if err := json.Unmarshal(data, &r); err != nil {
			return out, nil, fmt.Errorf("jobs: shard %s record: %w", key, err)
		}
		readings = append(readings, r)
	}
	res, err := core.FitCharacterize(readings)
	return out, res, err
}

// characterizeCore decodes the spec into the core sweep configuration.
func characterizeCore(spec Spec) (core.CharacterizeConfig, error) {
	var jc CharacterizeConfig
	if len(spec.Config) > 0 {
		if err := json.Unmarshal(spec.Config, &jc); err != nil {
			return core.CharacterizeConfig{}, fmt.Errorf("jobs: characterize config: %w", err)
		}
	}
	var fp *faults.Profile
	if spec.FaultProfile != "" {
		var err error
		if fp, err = faults.Resolve(spec.FaultProfile, spec.FaultIntensity); err != nil {
			return core.CharacterizeConfig{}, err
		}
	}
	return core.CharacterizeConfig{
		Seed:              spec.Seed,
		Levels:            jc.Levels,
		SamplesPerLevel:   jc.SamplesPerLevel,
		WarmupUpdates:     jc.WarmupUpdates,
		DisableStabilizer: jc.DisableStabilizer,
		Faults:            fp,
	}, nil
}

// levelFromKey recovers the activation level from a characterize shard
// key ("characterize/level/N").
func levelFromKey(key string) (int, error) {
	i := strings.LastIndexByte(key, '/')
	if i < 0 {
		return 0, fmt.Errorf("jobs: malformed characterize key %q", key)
	}
	level, err := strconv.Atoi(key[i+1:])
	if err != nil {
		return 0, fmt.Errorf("jobs: malformed characterize key %q: %w", key, err)
	}
	return level, nil
}
