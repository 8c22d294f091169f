package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: every usage error exits 2 with a message on
// stderr before any experiment runs, so stdout stays empty even for
// -exp all (which used to print Table I, Table II and Fig. 2 before
// failing on a negative -parallel).
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative parallel", []string{"-exp", "all", "-parallel", "-1"}, "-parallel must be >= 0"},
		{"negative samples", []string{"-exp", "fig2", "-samples", "-5"}, "-samples must be >= 0"},
		{"zero traces", []string{"-exp", "table3", "-traces", "0"}, "-traces must be > 0"},
		{"negative traces", []string{"-exp", "all", "-traces", "-2"}, "-traces must be > 0"},
		{"too few traces for table3", []string{"-exp", "table3", "-traces", "9"}, "9 traces/model cannot support 10-fold CV"},
		{"too few traces for all", []string{"-exp", "all", "-traces", "3"}, "3 traces/model cannot support 10-fold CV"},
		{"unknown experiment", []string{"-exp", "fig9"}, `unknown experiment "fig9"`},
		{"unknown fault profile", []string{"-exp", "table1", "-faults", "gremlins"}, "gremlins"},
		{"retired log flag", []string{"-exp", "table1", "-log-level", "error"}, "flag provided but not defined: -log-level"},
		{"faults on table1", []string{"-exp", "table1", "-faults", "hostile"}, "-faults hostile does not apply to -exp table1"},
		{"faults on table2", []string{"-exp", "table2", "-faults", "flaky-sysfs"}, "-faults flaky-sysfs does not apply to -exp table2"},
		{"faults on fig4", []string{"-exp", "fig4", "-samples", "50", "-faults", "hostile"}, "-faults hostile does not apply to -exp fig4"},
		{"faults on tvla", []string{"-exp", "tvla", "-faults", "stale-sensor"}, "-faults stale-sensor does not apply to -exp tvla"},
		{"faults on mitigation", []string{"-exp", "mitigation", "-faults", "noisy-sched"}, "-faults noisy-sched does not apply to -exp mitigation"},
		{"retired perf flag", []string{"-exp", "table1", "-json", "out.json"}, "flag provided but not defined: -json"},
		{"retired trace flag", []string{"-exp", "table1", "-trace-out", "t.json"}, "flag provided but not defined: -trace-out"},
		{"samples on table1", []string{"-exp", "table1", "-samples", "5"}, "-samples does not apply to -exp table1"},
		{"paper scale on table1", []string{"-exp", "table1", "-samples", "5", "-paper-scale"}, "-samples does not apply to -exp table1"},
		{"paper scale on table3", []string{"-exp", "table3", "-traces", "12", "-paper-scale"}, "-paper-scale does not apply to -exp table3"},
		{"paper scale on mitigation", []string{"-exp", "mitigation", "-paper-scale"}, "-paper-scale does not apply to -exp mitigation"},
		{"samples with paper scale", []string{"-exp", "fig2", "-samples", "200", "-paper-scale"}, "-samples and -paper-scale both set"},
		{"samples with paper scale on all", []string{"-exp", "all", "-samples", "5", "-paper-scale"}, "-samples and -paper-scale both set"},
		{"traces on fig2", []string{"-exp", "fig2", "-traces", "12"}, "-traces does not apply to -exp fig2"},
		{"default traces set on tvla", []string{"-exp", "tvla", "-traces", "10"}, "-traces does not apply to -exp tvla"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code %d, want 2; stderr:\n%s", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("stdout not empty:\n%s", stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q does not mention %q", stderr.String(), tc.want)
			}
		})
	}
}
