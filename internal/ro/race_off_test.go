//go:build !race

package ro

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
