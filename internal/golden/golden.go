// Package golden compares test output with golden files, the check
// behind the behaviour oracles of both CLIs and the obs endpoint
// goldens.
package golden

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// Check compares got with the golden file at path, or rewrites the
// file when update is set, and reports the first line that differs.
func Check(t testing.TB, path string, got []byte, update bool) {
	t.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if diff := FirstDiff(got, want); diff != "" {
		t.Errorf("%s: %s", path, diff)
	}
}

// FirstDiff describes the first line on which got and want differ, or
// returns "" when they are equal. A canonical manifest is a single long
// line, so the report also points at the first differing byte.
func FirstDiff(got, want []byte) string {
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
