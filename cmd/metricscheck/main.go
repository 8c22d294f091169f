// Command metricscheck validates the obs HTTP surface with the
// repository's own parsers. It is the CI smoke-test companion of the
// obs endpoints:
//
//   - OpenMetrics text (/metrics): scrape, validate structure (TYPE
//     metadata, counter conventions, histogram bucket monotonicity, the
//     # EOF terminator), and optionally require specific families.
//
// Usage:
//
//	metricscheck FILE                 # validate a saved exposition
//	metricscheck -url http://host:port/metrics
//	metricscheck -require sim_ticks,core_sampler_samples FILE
//	some-scraper | metricscheck -     # validate stdin
//
// Exit status: 0 valid, 1 invalid or unreachable, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/obs/openmetrics"
)

func main() {
	url := flag.String("url", "", "scrape this URL instead of reading a file")
	require := flag.String("require", "", "comma-separated family names that must be present")
	quiet := flag.Bool("q", false, "suppress the summary line (errors still print)")
	timeout := flag.Duration("timeout", 10*time.Second, "HTTP timeout for -url")
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
		fmt.Fprintln(os.Stderr, "usage: metricscheck [-url URL | FILE | -] [-require fam1,fam2]")
		os.Exit(2)
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
