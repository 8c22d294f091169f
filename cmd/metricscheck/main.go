// Command metricscheck validates the obs HTTP surface with the
// repository's own parsers. It is the CI smoke-test companion of the
// obs endpoints:
//
//   - OpenMetrics text (/metrics): scrape, validate structure (TYPE
//     metadata, counter conventions, histogram bucket monotonicity, the
//     # EOF terminator), and optionally require specific families.
//   - History JSON (/metrics/range): decode and run the schema
//     validator (-range).
//
// Usage:
//
//	metricscheck FILE                 # validate a saved exposition
//	metricscheck -url http://host:port/metrics
//	metricscheck -require sim_ticks,core_sampler_samples FILE
//	some-scraper | metricscheck -     # validate stdin
//	curl -s '.../metrics/range?...' | metricscheck -range -
//
// Exit status: 0 valid, 1 invalid or unreachable, 2 usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/openmetrics"
)

func main() {
	url := flag.String("url", "", "scrape this URL instead of reading a file")
	require := flag.String("require", "", "comma-separated family names that must be present")
	quiet := flag.Bool("q", false, "suppress the summary line (errors still print)")
	timeout := flag.Duration("timeout", 10*time.Second, "HTTP timeout for -url")
	rangeMode := flag.Bool("range", false, "validate a /metrics/range JSON response instead of an OpenMetrics exposition")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "metricscheck: "+format+"\n", args...)
		os.Exit(1)
	}
	var in io.ReadCloser
	var src string
	switch {
	case *url != "":
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "metricscheck: -url and a file argument are mutually exclusive")
			os.Exit(2)
		}
		client := &http.Client{Timeout: *timeout}
		resp, err := client.Get(*url)
		if err != nil {
			fail("%v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fail("%s: %s", *url, resp.Status)
		}
		in, src = resp.Body, *url
	case flag.NArg() == 1 && flag.Arg(0) == "-":
		in, src = os.Stdin, "stdin"
	case flag.NArg() == 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		in, src = f, flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: metricscheck [-url URL | FILE | -] [-require fam1,fam2] [-range]")
		os.Exit(2)
	}

	if *rangeMode {
		if err := checkRangeJSON(in, src, *quiet); err != nil {
			fail("%v", err)
		}
		return
	}

	e, err := openmetrics.Parse(in)
	if err != nil {
		fail("%s: %v", src, err)
	}
	if err := e.Validate(); err != nil {
		fail("%s: %v", src, err)
	}
	if *require != "" {
		var missing []string
		for _, name := range strings.Split(*require, ",") {
			name = strings.TrimSpace(name)
			if name != "" && e.Family(name) == nil {
				missing = append(missing, name)
			}
		}
		if len(missing) > 0 {
			fail("%s: missing required families: %s (have: %s)",
				src, strings.Join(missing, ", "), strings.Join(e.Names(), ", "))
		}
	}
	if !*quiet {
		samples := 0
		for _, f := range e.Families {
			samples += len(f.Samples)
		}
		fmt.Printf("%s: valid OpenMetrics exposition: %d families, %d samples\n",
			src, len(e.Families), samples)
	}
}

// checkRangeJSON decodes a /metrics/range response and runs its schema
// validator.
func checkRangeJSON(in io.Reader, src string, quiet bool) error {
	dec := json.NewDecoder(in)
	dec.DisallowUnknownFields()
	var rr obs.RangeResponse
	if err := dec.Decode(&rr); err != nil {
		return fmt.Errorf("%s: decoding range response: %v", src, err)
	}
	if err := rr.Validate(); err != nil {
		return fmt.Errorf("%s: %v", src, err)
	}
	if !quiet {
		points, windows := 0, 0
		for _, sr := range rr.Series {
			points += len(sr.Points)
			windows += len(sr.Windows)
		}
		fmt.Printf("%s: valid range response: %d series, %d points, %d windows (%s clock)\n",
			src, len(rr.Series), points, windows, rr.Clock)
	}
	return nil
}
