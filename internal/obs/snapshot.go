package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// HistogramStat is the serializable summary of one histogram.
type HistogramStat struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

func statOf(h *Histogram) HistogramStat {
	return HistogramStat{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// Snapshot is a point-in-time copy of a registry, the schema returned
// by ampere.Snapshot.
type Snapshot struct {
	// TakenAt is the wall-clock snapshot time.
	TakenAt time.Time `json:"taken_at"`
	// Counters maps counter name to value.
	Counters map[string]int64 `json:"counters"`
	// Gauges maps gauge name to value.
	Gauges map[string]float64 `json:"gauges"`
	// Histograms maps histogram name to its summary, including the
	// "span.<name>.{wall,sim}_ns" histograms the tracer maintains.
	Histograms map[string]HistogramStat `json:"histograms"`
	// RecentSpans is the bounded ring of completed spans, oldest first.
	RecentSpans []SpanRecord `json:"recent_spans"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	spans := r.spans.list()
	r.mu.Unlock()

	s := Snapshot{
		TakenAt:     time.Now(),
		Counters:    make(map[string]int64, len(counters)),
		Gauges:      make(map[string]float64, len(gauges)),
		Histograms:  make(map[string]HistogramStat, len(hists)),
		RecentSpans: spans,
	}
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range hists {
		s.Histograms[k] = statOf(h)
	}
	return s
}

// Counter returns a counter value from the snapshot (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns a gauge value from the snapshot (0 when absent).
func (s Snapshot) Gauge(name string) float64 { return s.Gauges[name] }

// Histogram returns a histogram summary and whether it exists.
func (s Snapshot) Histogram(name string) (HistogramStat, bool) {
	h, ok := s.Histograms[name]
	return h, ok
}

// WriteText renders the snapshot as the aligned text block the CLI's
// --obs flag prints after an experiment.
func (s Snapshot) WriteText(w io.Writer) error {
	var b strings.Builder
	b.WriteString("== obs snapshot ==\n")

	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, k := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "  %-36s %d\n", k, s.Counters[k])
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, k := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "  %-36s %.4g\n", k, s.Gauges[k])
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms (count mean p50 p95 p99 max):\n")
		for _, k := range sortedKeys(s.Histograms) {
			h := s.Histograms[k]
			fmt.Fprintf(&b, "  %-36s %8d  %s %s %s %s %s\n",
				k, h.Count, formatFor(k, h.Mean), formatFor(k, h.P50),
				formatFor(k, h.P95), formatFor(k, h.P99), formatFor(k, h.Max))
		}
	}
	if len(s.RecentSpans) > 0 {
		// The span ring retains up to SpanRingSize records for the trace
		// exporter; the text snapshot shows only the most recent few so a
		// long run's -obs output stays readable.
		const textSpans = 32
		spans := s.RecentSpans
		if len(spans) > textSpans {
			fmt.Fprintf(&b, "recent spans (last %d of %d retained):\n", textSpans, len(spans))
			spans = spans[len(spans)-textSpans:]
		} else {
			fmt.Fprintf(&b, "recent spans (last %d):\n", len(spans))
		}
		for _, sp := range spans {
			if sp.HasSim {
				fmt.Fprintf(&b, "  %-36s wall=%-12v sim=%v\n", sp.Name,
					sp.Wall.Round(time.Microsecond), sp.Sim)
			} else {
				fmt.Fprintf(&b, "  %-36s wall=%v\n", sp.Name,
					sp.Wall.Round(time.Microsecond))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFor renders a histogram value with a unit inferred from the
// metric name: *_ns values print as durations, *_hz as rates.
func formatFor(name string, v float64) string {
	switch {
	case strings.HasSuffix(name, "_ns"):
		return fmt.Sprintf("%-10v", time.Duration(v).Round(time.Nanosecond))
	case strings.HasSuffix(name, "_hz"):
		return fmt.Sprintf("%-10s", fmt.Sprintf("%.1fHz", v))
	default:
		return fmt.Sprintf("%-10.4g", v)
	}
}
