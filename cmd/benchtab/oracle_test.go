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
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

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
			checkOracle(t, exp+".txt", stdout)
			checkOracle(t, exp+".canonical.json", append(canon, '\n'))
		})
	}
}

// checkOracle compares got with testdata/name (or rewrites it under
// -update) and reports the first line that differs.
func checkOracle(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if diff := firstDiff(got, want); diff != "" {
		t.Errorf("%s: %s", path, diff)
	}
}

// firstDiff describes the first line on which got and want differ, or
// returns "" when they are equal. The canonical manifest is a single
// long line, so the report also points at the first differing byte.
func firstDiff(got, want []byte) string {
	if bytes.Equal(got, want) {
		return ""
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; ; i++ {
		if i >= len(g) || i >= len(w) {
			return fmt.Sprintf("output has %d lines, golden has %d", len(g), len(w))
		}
		if bytes.Equal(g[i], w[i]) {
			continue
		}
		col := 0
		for col < len(g[i]) && col < len(w[i]) && g[i][col] == w[i][col] {
			col++
		}
		return fmt.Sprintf("line %d differs at column %d:\n  got:  %s\n  want: %s",
			i+1, col+1, excerpt(g[i], col), excerpt(w[i], col))
	}
}

// excerpt returns up to 60 bytes of line around col.
func excerpt(line []byte, col int) string {
	lo, hi := max(0, col-20), min(len(line), col+40)
	prefix, suffix := "", ""
	if lo > 0 {
		prefix = "…"
	}
	if hi < len(line) {
		suffix = "…"
	}
	return prefix + string(line[lo:hi]) + suffix
}
