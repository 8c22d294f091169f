package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testSpec() Spec {
	return Spec{
		RunID:          "run-1",
		Seed:           42,
		FaultProfile:   "hostile",
		FaultIntensity: 0.5,
		Config:         json.RawMessage(`{"levels":5}`),
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	spec := testSpec()
	keys := []string{"a", "b", "c"}
	cp := NewCheckpoint(spec, keys)
	cp.Completed["a"] = ShardRecord{Seed: 7, Data: json.RawMessage(`{"v":1}`)}
	cp.Quarantined["b"] = "boom"
	cp.Counters = map[string]int64{"x": 3}
	cp.Rounds = 2

	path := filepath.Join(t.TempDir(), "cp.json")
	if err := SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", got, cp)
	}
	if err := got.matches(spec, keys); err != nil {
		t.Errorf("matches() on identical spec: %v", err)
	}
}

func TestCheckpointSaveLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cp.json")
	if err := SaveCheckpoint(path, NewCheckpoint(testSpec(), []string{"a"})); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "cp.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory after save = %v, want just cp.json", names)
	}
}

func TestCheckpointLoadMissing(t *testing.T) {
	_, err := LoadCheckpoint(filepath.Join(t.TempDir(), "nope.json"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("load of missing file = %v, want fs.ErrNotExist", err)
	}
}

func TestCheckpointCRCDetectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.json")
	cp := NewCheckpoint(testSpec(), []string{"a"})
	cp.Completed["a"] = ShardRecord{Seed: 9, Data: json.RawMessage(`{"v":42}`)}
	if err := SaveCheckpoint(path, cp); err != nil {
		t.Fatal(err)
	}
	// Rewrite the payload without updating the CRC: a torn or bit-rotted
	// checkpoint must be rejected, not trusted.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		SchemaVersion int             `json:"schema_version"`
		CRC32         uint32          `json:"crc32"`
		Payload       json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Replace(env.Payload, []byte(`"seed":42`), []byte(`"seed":43`), 1)
	if bytes.Equal(flipped, env.Payload) {
		t.Fatal("corruption probe found nothing to flip")
	}
	env.Payload = flipped
	tampered, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("load of tampered checkpoint = %v, want ErrCheckpointCorrupt", err)
	}
}

func TestCheckpointSchemaVersionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.json")
	if err := os.WriteFile(path, []byte(`{"schema_version":99,"crc32":0,"payload":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Errorf("load of future schema = %v, want ErrCheckpointCorrupt", err)
	}
}

func TestCheckpointMismatch(t *testing.T) {
	spec := testSpec()
	keys := []string{"a", "b"}
	cp := NewCheckpoint(spec, keys)

	cases := []struct {
		name string
		spec Spec
		keys []string
	}{
		{"seed", func() Spec { s := spec; s.Seed = 43; return s }(), keys},
		{"fault profile", func() Spec { s := spec; s.FaultProfile = "none"; return s }(), keys},
		{"fault intensity", func() Spec { s := spec; s.FaultIntensity = 1; return s }(), keys},
		{"config", func() Spec { s := spec; s.Config = json.RawMessage(`{"levels":6}`); return s }(), keys},
		{"key count", spec, []string{"a"}},
		{"key order", spec, []string{"b", "a"}},
	}
	for _, tc := range cases {
		if err := cp.matches(tc.spec, tc.keys); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s: matches = %v, want ErrCheckpointMismatch", tc.name, err)
		}
	}
	// Kind and board are constants of the engine, not spec fields: a
	// checkpoint recording another kind or board is foreign.
	for name, edit := range map[string]func(*Checkpoint){
		"kind":  func(cp *Checkpoint) { cp.Kind = "other" },
		"board": func(cp *Checkpoint) { cp.Board = "kv260" },
	} {
		foreign := NewCheckpoint(spec, keys)
		edit(foreign)
		if err := foreign.matches(spec, keys); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s: matches = %v, want ErrCheckpointMismatch", name, err)
		}
	}
}
