// Package top renders the `amperebleed top` live terminal dashboard: a
// flicker-free ANSI view of the attack pipeline's health, redrawn from
// a snapshot polled once per refresh interval — from the
// /metrics/snapshot endpoint of a running -obs-addr server, or from the
// in-process registry.
//
// The dashboard shows the five quantities a running attack stands or
// falls on, one panel group each:
//
//	sampling  achieved sample-rate percentiles and the resilient
//	          sampler's absorb counters (retries, gaps, re-resolves)
//	leakage   TVLA t statistic and SNR of the last assessment
//	covert    bit-error rate and throughput of the last transmission
//	faults    injected-fault counters by kind
//	shards    runner campaign progress, failures, utilization
//
// Everything is plain stdlib: rendering is string assembly, and the
// flicker-free redraw is cursor-home plus clear-to-end-of-line per
// line rather than a full-screen clear, so an unchanged line never
// blanks between frames.
package top

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Options configures a render.
type Options struct {
	// Source labels the header (an URL or "in-process").
	Source string
	// Width is the panel width in columns (default 72).
	Width int
}

const defaultWidth = 72

// Frame renders one dashboard frame from a snapshot. prev, when
// non-nil, is the previous frame's snapshot and enables delta rates
// (samples/s between frames); the returned lines carry no ANSI codes —
// Screen adds cursor control, and -once mode prints them verbatim.
func Frame(s obs.Snapshot, prev *obs.Snapshot, opt Options) []string {
	w := opt.Width
	if w <= 0 {
		w = defaultWidth
	}
	src := opt.Source
	if src == "" {
		src = "in-process"
	}
	var ln []string
	add := func(format string, args ...any) { ln = append(ln, fmt.Sprintf(format, args...)) }
	rule := func(title string) {
		pad := w - len(title) - 4
		if pad < 0 {
			pad = 0
		}
		add("── %s %s", title, strings.Repeat("─", pad))
	}

	add("amperebleed top · %s · %s", src, s.TakenAt.Format("15:04:05.000"))
	add("sim ticks %s · events %d", groupInt(s.Counter("sim.ticks")), len(s.Events))

	// sampling
	rule("sampling")
	if h, ok := s.Histogram("attacker.sample_rate_hz"); ok && h.Count > 0 {
		add("  rate     p50 %7.1f Hz   p95 %7.1f Hz   p99 %7.1f Hz   (n=%d)",
			h.P50, h.P95, h.P99, h.Count)
		add("  rate     mean %6.1f Hz   min %7.1f Hz   max %7.1f Hz", h.Mean, h.Min, h.Max)
	} else {
		add("  rate     (no samples yet)")
	}
	samples := s.Counter("core.sampler.samples") + s.Counter("trace.samples_recorded")
	gaps := s.Counter("core.sampler.gaps") + s.Counter("trace.gaps_recorded")
	add("  samples  %-12s gaps %-10s retries %-8s reresolves %s",
		groupInt(samples), groupInt(gaps),
		groupInt(s.Counter("core.sampler.retries")),
		groupInt(s.Counter("core.sampler.reresolves")))
	line := fmt.Sprintf("  consec gaps %.0f", s.Gauge("core.sampler.consecutive_gaps"))
	if prev != nil {
		if dt := s.TakenAt.Sub(prev.TakenAt).Seconds(); dt > 0 {
			prevSamples := prev.Counter("core.sampler.samples") + prev.Counter("trace.samples_recorded")
			line += fmt.Sprintf("   throughput %.0f samples/s", float64(samples-prevSamples)/dt)
		}
	}
	ln = append(ln, line)

	// leakage
	rule("leakage")
	t := s.Gauge("leakage.tvla_t")
	verdict := "no leak evidence"
	if t > 4.5 || t < -4.5 {
		verdict = "LEAKS (|t| > 4.5)"
	}
	add("  TVLA t   %+8.1f   %s", t, verdict)
	add("  SNR      %8.2f", s.Gauge("leakage.snr"))

	// covert
	rule("covert")
	add("  BER      %8.4f   throughput %8.1f bit/s",
		s.Gauge("covert.ber"), s.Gauge("covert.bits_per_sec"))

	// faults
	rule("faults")
	total := int64(0)
	var kinds []string
	for name := range s.Counters {
		if strings.HasPrefix(name, "faults.injected.") {
			kinds = append(kinds, name)
			total += s.Counters[name]
		}
	}
	sort.Strings(kinds)
	add("  injected %s total", groupInt(total))
	for i := 0; i+1 < len(kinds); i += 2 {
		add("  %-34s %-10s %-22s %s",
			strings.TrimPrefix(kinds[i], "faults.injected."), groupInt(s.Counters[kinds[i]]),
			strings.TrimPrefix(kinds[i+1], "faults.injected."), groupInt(s.Counters[kinds[i+1]]))
	}
	if len(kinds)%2 == 1 {
		k := kinds[len(kinds)-1]
		add("  %-34s %s", strings.TrimPrefix(k, "faults.injected."), groupInt(s.Counters[k]))
	}

	// shards
	rule("shards")
	add("  done     %-10s failed %-8s panicked %-8s workers %.0f",
		groupInt(s.Counter("runner.shards")),
		groupInt(s.Counter("runner.shards_failed")),
		groupInt(s.Counter("runner.shards_panicked")),
		s.Gauge("runner.workers"))
	util := s.Gauge("runner.utilization")
	add("  util     %5.1f%%  %s", 100*util, bar(util, 40))
	if h, ok := s.Histogram("runner.shard_ns"); ok && h.Count > 0 {
		add("  latency  p50 %-12v p95 %-12v max %v",
			time.Duration(h.P50).Round(time.Millisecond),
			time.Duration(h.P95).Round(time.Millisecond),
			time.Duration(h.Max).Round(time.Millisecond))
	}

	// recent events, newest last, at most three
	if n := len(s.Events); n > 0 {
		rule("events")
		lo := n - 3
		if lo < 0 {
			lo = 0
		}
		for _, e := range s.Events[lo:] {
			msg := e.Msg
			if max := w - 16; max > 0 && len(msg) > max {
				msg = msg[:max-1] + "…"
			}
			add("  %s  %s", e.At.Format("15:04:05.000"), msg)
		}
	}
	return ln
}

// bar renders a unit-interval value as a fixed-width meter.
func bar(v float64, width int) string {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	full := int(v*float64(width) + 0.5)
	return "[" + strings.Repeat("█", full) + strings.Repeat("·", width-full) + "]"
}

// groupInt formats n with thousands separators (1234567 -> "1,234,567").
func groupInt(n int64) string {
	s := fmt.Sprintf("%d", n)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}

// Screen is a flicker-free ANSI frame writer: the first frame clears
// the terminal, subsequent frames home the cursor and overwrite line by
// line, clearing to end-of-line so shrinking lines leave no residue.
type Screen struct {
	w         io.Writer
	started   bool
	lastLines int
}

// NewScreen returns a Screen writing to w.
func NewScreen(w io.Writer) *Screen { return &Screen{w: w} }

// Draw renders one frame.
func (sc *Screen) Draw(lines []string) {
	var b strings.Builder
	if !sc.started {
		b.WriteString("\x1b[2J\x1b[?25l") // clear once, hide cursor
		sc.started = true
	}
	b.WriteString("\x1b[H")
	for _, l := range lines {
		b.WriteString(l)
		b.WriteString("\x1b[K\n")
	}
	// Wipe leftover lines from a taller previous frame.
	if extra := sc.lastLines - len(lines); extra > 0 {
		b.WriteString("\x1b[J")
	}
	sc.lastLines = len(lines)
	_, _ = io.WriteString(sc.w, b.String())
}

// Close restores the cursor.
func (sc *Screen) Close() {
	if sc.started {
		_, _ = io.WriteString(sc.w, "\x1b[?25h")
	}
}
