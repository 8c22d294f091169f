package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFaultsOnlyWhereInjected: -faults other than none is a usage error
// for every command that builds no board taking the global profile. The
// run exits 2 before the command starts, prints nothing on stdout and
// appends no manifest claiming a profile it never injected.
func TestFaultsOnlyWhereInjected(t *testing.T) {
	for _, args := range [][]string{
		{"rsa", "-samples", "200"},
		{"boards"},
		{"profile"},
		{"leakage"},
		{"robustness"},
		{"resume", "run.ckpt"},
	} {
		t.Run(args[0], func(t *testing.T) {
			ledgerPath := filepath.Join(t.TempDir(), "l.jsonl")
			cmd := childCommand(append([]string{"-faults", "hostile", "-ledger", ledgerPath}, args...)...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			var exit *exec.ExitError
			if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit %v, want status 2; stderr:\n%s", err, stderr.Bytes())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty:\n%s", stdout.Bytes())
			}
			if want := "-faults hostile does not apply to " + args[0]; !strings.Contains(stderr.String(), want) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), want)
			}
			if _, err := os.Stat(ledgerPath); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("ledger written (stat err %v)", err)
			}
		})
	}
}

func TestRunFlagsValidate(t *testing.T) {
	cases := []struct {
		name    string
		flags   runFlags
		wantErr string // empty = valid
	}{
		{name: "zero value", flags: runFlags{}},
		{name: "typical", flags: runFlags{FaultIntensity: 1, Parallel: 8}},
		{name: "zero intensity disables faults", flags: runFlags{FaultIntensity: 0}},
		{name: "fractional intensity", flags: runFlags{FaultIntensity: 0.25}},
		{name: "negative intensity", flags: runFlags{FaultIntensity: -0.5}, wantErr: "-fault-intensity must be >= 0"},
		{name: "NaN intensity", flags: runFlags{FaultIntensity: math.NaN()}, wantErr: "-fault-intensity must be finite"},
		{name: "Inf intensity", flags: runFlags{FaultIntensity: math.Inf(1)}, wantErr: "-fault-intensity must be finite"},
		{name: "negative parallel", flags: runFlags{Parallel: -1}, wantErr: "-parallel must be >= 0"},
		{name: "parallel zero is the default selector", flags: runFlags{Parallel: 0}},
		{name: "first error wins", flags: runFlags{FaultIntensity: -1, Parallel: -1}, wantErr: "-fault-intensity"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.flags.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate(%+v) = %v, want nil", tc.flags, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validate(%+v) = nil, want error containing %q", tc.flags, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate(%+v) = %q, want it to contain %q", tc.flags, err, tc.wantErr)
			}
		})
	}
}
