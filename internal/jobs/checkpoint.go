package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

// CheckpointSchemaVersion identifies the checkpoint payload schema;
// bump it when fields change meaning or name. A checkpoint with a
// different schema version is rejected at load time rather than
// misinterpreted.
const CheckpointSchemaVersion = 1

// ErrCheckpointCorrupt marks a checkpoint file that failed the CRC32
// or schema check — a torn write, bit rot, or truncation. Resume
// refuses to trust it.
var ErrCheckpointCorrupt = errors.New("jobs: checkpoint corrupt")

// ErrCheckpointMismatch marks a checkpoint whose recorded experiment
// identity (kind, seed, board, fault profile, config) does not match
// the run trying to resume from it. Skipping shards against a
// mismatched checkpoint would silently splice two different
// experiments together, so resume refuses.
var ErrCheckpointMismatch = errors.New("jobs: checkpoint does not match this run")

// ShardRecord is one completed shard's durable state: the
// deterministic seed it ran under (runner.ShardSeed of the campaign
// seed and the shard key — verified on resume, so a seed-derivation
// drift is caught instead of silently replayed wrong) and its
// canonicalized result.
type ShardRecord struct {
	Seed int64           `json:"seed"`
	Data json.RawMessage `json:"data"`
}

// Checkpoint is the durable state of a supervised job. It is written
// atomically at round barriers — moments where no shard is in flight —
// because that is the only point at which the global counter snapshot
// is a clean prefix sum of per-shard contributions (see the package doc
// comment for why that matters for resume determinism).
type Checkpoint struct {
	SchemaVersion int `json:"schema_version"`

	// Job identity: resume verifies every one of these against the
	// resuming spec before skipping a single shard.
	Kind           string          `json:"kind"`
	Seed           int64           `json:"seed"`
	Board          string          `json:"board,omitempty"`
	FaultProfile   string          `json:"fault_profile,omitempty"`
	FaultIntensity float64         `json:"fault_intensity,omitempty"`
	Config         json.RawMessage `json:"config,omitempty"`

	// Resume lineage: RunID is the run that last wrote this
	// checkpoint; ParentRunID is the run it itself resumed from (empty
	// for a first run). The ledger manifest records both.
	RunID       string `json:"run_id,omitempty"`
	ParentRunID string `json:"parent_run_id,omitempty"`

	// Keys is the full shard key list of the campaign, in submission
	// order; a resume with a different key set is a config mismatch.
	Keys []string `json:"keys"`

	// Completed maps shard key -> durable record. Quarantined maps
	// shard key -> error string for shards that failed.
	Completed   map[string]ShardRecord `json:"completed"`
	Quarantined map[string]string      `json:"quarantined,omitempty"`

	// Counters is the deterministic obs counter state at the barrier
	// this checkpoint was written: the banked contribution of every
	// completed shard (plus fixed per-barrier bookkeeping). Resume
	// seeds the fresh process's registry with it, so the final counter
	// totals of a resumed run equal an uninterrupted one.
	Counters map[string]int64 `json:"counters,omitempty"`

	// Rounds is how many round barriers have been committed.
	Rounds int `json:"rounds"`
}

// envelope is the on-disk framing: the payload bytes are protected by
// a CRC32 (IEEE) so a torn or bit-rotted checkpoint is detected before
// a single shard is skipped on its word.
type envelope struct {
	SchemaVersion int             `json:"schema_version"`
	CRC32         uint32          `json:"crc32"`
	Payload       json.RawMessage `json:"payload"`
}

// NewCheckpoint returns an empty checkpoint carrying the spec's
// identity, under CharacterizeKind on the ZCU102.
func NewCheckpoint(spec Spec, keys []string) *Checkpoint {
	return &Checkpoint{
		SchemaVersion:  CheckpointSchemaVersion,
		Kind:           CharacterizeKind,
		Seed:           spec.Seed,
		Board:          characterizeBoard,
		FaultProfile:   spec.FaultProfile,
		FaultIntensity: spec.FaultIntensity,
		Config:         spec.Config,
		RunID:          spec.RunID,
		Keys:           keys,
		Completed:      make(map[string]ShardRecord),
		Quarantined:    make(map[string]string),
	}
}

// SaveCheckpoint writes the checkpoint atomically: marshal, CRC, write
// to a same-directory temp file, fsync, rename over the target. A
// crash at any point leaves either the previous checkpoint or the new
// one — never a torn file.
func SaveCheckpoint(path string, cp *Checkpoint) error {
	payload, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("jobs: marshal checkpoint: %w", err)
	}
	env := envelope{
		SchemaVersion: CheckpointSchemaVersion,
		CRC32:         crc32.ChecksumIEEE(payload),
		Payload:       payload,
	}
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("jobs: marshal checkpoint envelope: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("jobs: checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = os.Remove(tmpName) }
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("jobs: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("jobs: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("jobs: close checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		cleanup()
		return fmt.Errorf("jobs: rename checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads and verifies a checkpoint: envelope schema,
// CRC32 of the payload bytes, and payload schema version. Any
// verification failure returns an error wrapping ErrCheckpointCorrupt.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: %s: not a checkpoint envelope: %v", ErrCheckpointCorrupt, path, err)
	}
	if env.SchemaVersion != CheckpointSchemaVersion {
		return nil, fmt.Errorf("%w: %s: envelope schema %d, want %d",
			ErrCheckpointCorrupt, path, env.SchemaVersion, CheckpointSchemaVersion)
	}
	if got := crc32.ChecksumIEEE(env.Payload); got != env.CRC32 {
		return nil, fmt.Errorf("%w: %s: crc32 %08x, recorded %08x",
			ErrCheckpointCorrupt, path, got, env.CRC32)
	}
	var cp Checkpoint
	if err := json.Unmarshal(env.Payload, &cp); err != nil {
		return nil, fmt.Errorf("%w: %s: payload: %v", ErrCheckpointCorrupt, path, err)
	}
	if cp.SchemaVersion != CheckpointSchemaVersion {
		return nil, fmt.Errorf("%w: %s: payload schema %d, want %d",
			ErrCheckpointCorrupt, path, cp.SchemaVersion, CheckpointSchemaVersion)
	}
	if cp.Completed == nil {
		cp.Completed = make(map[string]ShardRecord)
	}
	if cp.Quarantined == nil {
		cp.Quarantined = make(map[string]string)
	}
	return &cp, nil
}

// matches verifies the checkpoint's experiment identity against a
// resuming spec and shard key list; it returns nil when every identity
// field agrees.
func (cp *Checkpoint) matches(spec Spec, keys []string) error {
	var diffs []string
	if cp.Kind != CharacterizeKind {
		diffs = append(diffs, fmt.Sprintf("kind %q vs %q", cp.Kind, CharacterizeKind))
	}
	if cp.Seed != spec.Seed {
		diffs = append(diffs, fmt.Sprintf("seed %d vs %d", cp.Seed, spec.Seed))
	}
	if cp.Board != characterizeBoard {
		diffs = append(diffs, fmt.Sprintf("board %q vs %q", cp.Board, characterizeBoard))
	}
	if cp.FaultProfile != spec.FaultProfile {
		diffs = append(diffs, fmt.Sprintf("fault profile %q vs %q", cp.FaultProfile, spec.FaultProfile))
	}
	if cp.FaultIntensity != spec.FaultIntensity {
		diffs = append(diffs, fmt.Sprintf("fault intensity %v vs %v", cp.FaultIntensity, spec.FaultIntensity))
	}
	if string(cp.Config) != string(spec.Config) {
		diffs = append(diffs, "config")
	}
	if len(cp.Keys) != len(keys) {
		diffs = append(diffs, fmt.Sprintf("shard count %d vs %d", len(cp.Keys), len(keys)))
	} else {
		for i := range keys {
			if cp.Keys[i] != keys[i] {
				diffs = append(diffs, fmt.Sprintf("shard key[%d] %q vs %q", i, cp.Keys[i], keys[i]))
				break
			}
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("%w: %s", ErrCheckpointMismatch, strings.Join(diffs, "; "))
	}
	return nil
}
