package main

import (
	"fmt"
	"math"
)

// runFlags gathers the flag values every command path must validate
// the same way, up front — before a board is built or a campaign
// starts, so a bad combination fails in microseconds with a usage
// error instead of minutes later deep inside a sharded run (or, worse,
// silently: a negative -fault-intensity used to pass unchecked when
// -faults was "none", because the only validation lived in
// faults.Scale which never ran for a disabled profile).
//
// The zero value is valid; each caller fills in only the flags it
// owns. Property-test flag combinations (-check.seed/-check.iters)
// are validated by internal/check itself, which owns those flags.
type runFlags struct {
	// FaultIntensity is the global -fault-intensity scale factor.
	FaultIntensity float64
	// Parallel is a subcommand's -parallel worker count, where 0
	// selects the command's documented default (serial protocol or
	// GOMAXPROCS).
	Parallel int
}

// validate returns the first problem found, phrased in terms of the
// offending flag.
func (f runFlags) validate() error {
	if math.IsNaN(f.FaultIntensity) || math.IsInf(f.FaultIntensity, 0) {
		return fmt.Errorf("-fault-intensity must be finite (got %v)", f.FaultIntensity)
	}
	if f.FaultIntensity < 0 {
		return fmt.Errorf("-fault-intensity must be >= 0 (got %v)", f.FaultIntensity)
	}
	if f.Parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 selects the command's default; got %d)", f.Parallel)
	}
	return nil
}
