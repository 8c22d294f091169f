//go:build !race

package main

import "testing"

// TestOracleTable3 is table3's behaviour oracle (see oracle_test.go).
// It takes about 4 s, far longer under the race detector, so it builds
// only without it.
func TestOracleTable3(t *testing.T) { oracle(t, "table3") }
