package top

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// demoSnapshot fabricates a snapshot with every metric the five panel
// groups read.
func demoSnapshot(at time.Time) obs.Snapshot {
	return obs.Snapshot{
		TakenAt: at,
		Counters: map[string]int64{
			"sim.ticks":                    123456,
			"core.sampler.samples":         900,
			"core.sampler.gaps":            12,
			"core.sampler.retries":         30,
			"core.sampler.reresolves":      2,
			"trace.samples_recorded":       5000,
			"trace.gaps_recorded":          40,
			"faults.injected.sysfs_eagain": 17,
			"faults.injected.stale_latch":  8,
			"faults.injected.bitflip":      1,
			"runner.shards":                39,
			"runner.shards_failed":         1,
			"runner.shards_panicked":       0,
		},
		Gauges: map[string]float64{
			"leakage.snr":                   14.2,
			"leakage.tvla_t":                87.3,
			"covert.ber":                    0.0156,
			"covert.bits_per_sec":           27.9,
			"runner.workers":                4,
			"runner.utilization":            0.82,
			"core.sampler.consecutive_gaps": 2,
		},
		Histograms: map[string]obs.HistogramStat{
			"attacker.sample_rate_hz": {Count: 500, Mean: 27.9, Min: 19, Max: 28.6, P50: 28.1, P95: 28.5, P99: 28.6},
			"runner.shard_ns":         {Count: 39, Mean: 2.1e9, Min: 1e9, Max: 4e9, P50: 2e9, P95: 3.5e9, P99: 3.9e9},
		},
		Events: []obs.Event{{At: at, Msg: "runner: fingerprint: 39 shards done"}},
	}
}

func TestFrameRendersAllPanelGroups(t *testing.T) {
	at := time.Date(2026, 8, 8, 12, 0, 1, 0, time.UTC)
	lines := Frame(demoSnapshot(at), nil, Options{Source: "test"})
	joined := strings.Join(lines, "\n")
	for _, want := range []string{
		"sampling", "leakage", "covert", "faults", "shards", // the five panel groups
		"p50    28.1 Hz", // sample-rate percentiles
		"TVLA t", "+87.3", "LEAKS",
		"0.0156",              // covert BER
		"sysfs_eagain",        // fault kind
		"failed 1",            // shard failures
		"sim ticks 123,456",   // header
		"runner: fingerprint", // event tail
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("frame lacks %q:\n%s", want, joined)
		}
	}
	// No ANSI codes in the raw frame: -once prints it verbatim.
	if strings.Contains(joined, "\x1b") {
		t.Fatal("Frame emitted ANSI escapes")
	}
}

func TestFrameDeltaThroughput(t *testing.T) {
	at := time.Date(2026, 8, 8, 12, 0, 1, 0, time.UTC)
	prev := demoSnapshot(at)
	cur := demoSnapshot(at.Add(time.Second))
	cur.Counters["core.sampler.samples"] += 250
	joined := strings.Join(Frame(cur, &prev, Options{}), "\n")
	if !strings.Contains(joined, "throughput 250 samples/s") {
		t.Fatalf("delta throughput missing:\n%s", joined)
	}
}

func TestGroupInt(t *testing.T) {
	for in, want := range map[int64]string{
		0: "0", 7: "7", 999: "999", 1000: "1,000",
		1234567: "1,234,567", -1234: "-1,234",
	} {
		if got := groupInt(in); got != want {
			t.Errorf("groupInt(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestBar(t *testing.T) {
	if got := bar(0.5, 10); got != "[█████·····]" {
		t.Errorf("bar(0.5) = %q", got)
	}
	if got := bar(-1, 4); got != "[····]" {
		t.Errorf("bar(-1) = %q", got)
	}
	if got := bar(2, 4); got != "[████]" {
		t.Errorf("bar(2) = %q", got)
	}
}

func TestScreenRedrawIsIncremental(t *testing.T) {
	var buf strings.Builder
	sc := NewScreen(&buf)
	sc.Draw([]string{"one", "two"})
	first := buf.String()
	if !strings.Contains(first, "\x1b[2J") {
		t.Fatal("first frame did not clear the screen")
	}
	buf.Reset()
	sc.Draw([]string{"one"})
	second := buf.String()
	if strings.Contains(second, "\x1b[2J") {
		t.Fatal("second frame cleared the whole screen (flicker)")
	}
	for _, want := range []string{"\x1b[H", "\x1b[K", "\x1b[J"} {
		if !strings.Contains(second, want) {
			t.Fatalf("second frame lacks %q: %q", want, second)
		}
	}
	sc.Close()
	if !strings.Contains(buf.String(), "\x1b[?25h") {
		t.Fatal("Close did not restore the cursor")
	}
}

func TestFetchSnapshot(t *testing.T) {
	r := obs.NewRegistry()
	r.Gauge("covert.ber").Set(0.25)
	srv := httptest.NewServer(obs.NewHandler(r))
	defer srv.Close()
	snap, err := FetchSnapshot(context.Background(), srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Gauge("covert.ber") != 0.25 {
		t.Fatalf("fetched covert.ber = %v", snap.Gauge("covert.ber"))
	}
}
