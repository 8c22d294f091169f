//go:build !race

package dpu

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count assertions are skipped under -race: the detector
// changes inlining and shadow-memory behaviour enough to add heap
// allocations that do not exist in production builds.
const raceEnabled = false
