package main

// Behaviour oracle: every benchtab experiment at seed 1 is replayed
// against two goldens under testdata/ — its stdout (<exp>.txt) and the
// canonical form of the run manifest it appends with -ledger
// (<exp>.canonical.json, the bytes `amperebleed runs -canonical 0`
// prints). The manifest covers what stdout does not: the exact counter
// set (sim ticks, sensor reads, captures, ...) with wall-clock fields
// stripped, so a change that keeps the figures but alters the work done
// is caught as well as one that moves a figure.
//
// Each experiment runs in a fresh child process (this test binary,
// re-executed with oracleChildEnv set), because a registry reset zeroes
// counters but keeps their names: in one process, the manifest of a
// later experiment would list every counter an earlier one registered.
//
// Regenerate after a deliberate behaviour change with
//
//	go test ./cmd/benchtab -run TestOracle -update
//
// table3 and tvla have goldens too but are too slow for go test (table3
// runs for over a minute; tvla for about 3 s, but far longer under
// -race); CI diffs them with the built binaries, see EXPERIMENTS.md for
// the commands.

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/golden"
	"repro/internal/obs/ledger"
)

var update = flag.Bool("update", false, "rewrite the oracle goldens under testdata/")

const oracleChildEnv = "BENCHTAB_ORACLE_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(oracleChildEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// runChild runs benchtab with args in a fresh process and returns its
// stdout; a non-zero exit fails the test with the child's stderr.
func runChild(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), oracleChildEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("benchtab %v: %v\n%s", args, err, stderr.Bytes())
	}
	return stdout.Bytes()
}

func TestOracle(t *testing.T) {
	for _, exp := range []string{"table1", "table2", "fig2", "fig3", "fig4", "applicability", "mitigation"} {
		t.Run(exp, func(t *testing.T) {
			t.Parallel()
			ledgerPath := filepath.Join(t.TempDir(), "runs.jsonl")
			stdout := runChild(t, "-exp", exp, "-ledger", ledgerPath)
			ms, err := ledger.Read(ledgerPath)
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) != 1 {
				t.Fatalf("ledger holds %d manifests, want 1", len(ms))
			}
			canon, err := ledger.CanonicalJSON(ms[0])
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", exp+".txt"), stdout, *update)
			golden.Check(t, filepath.Join("testdata", exp+".canonical.json"), append(canon, '\n'), *update)
		})
	}
}
