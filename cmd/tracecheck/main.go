// Command tracecheck validates that a file parses as Chrome
// trace-event JSON (the format written by the -trace-out flag and
// ampere.WriteTrace). It exits non-zero when the file would
// not load in chrome://tracing or Perfetto, which is what CI's trace
// smoke step checks after exporting a timeline.
//
// Usage:
//
//	tracecheck FILE...
package main

import (
	"fmt"
	"os"

	"repro/internal/obs/export"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck FILE...")
		os.Exit(2)
	}
	status := 0
	for _, path := range os.Args[1:] {
		if err := export.ValidateFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", path, err)
			status = 1
			continue
		}
		fmt.Printf("ok   %s\n", path)
	}
	os.Exit(status)
}
