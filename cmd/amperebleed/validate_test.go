package main

import (
	"math"
	"strings"
	"testing"
)

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
