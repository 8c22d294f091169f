//go:build race

package dpu

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
