// Package openmetrics is a pure-Go parser and validator for the
// OpenMetrics text exposition format, covering the subset the obs
// registry's /metrics endpoint emits: counter, gauge, and histogram
// families with HELP/TYPE metadata, escaped label values, and the
// trailing "# EOF" marker.
//
// It exists so the repository can verify its own exposition without a
// Prometheus dependency: the renderer (obs.WriteOpenMetrics) and this
// parser are written against the same spec from opposite directions,
// and the round-trip test in internal/obs holds them to each other.
// cmd/metricscheck wraps Parse+Validate for CI smoke tests.
package openmetrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one exposed time series value.
type Sample struct {
	// Name is the full sample name including any _total/_bucket/_sum/
	// _count suffix.
	Name string
	// Labels are the sample's label pairs (nil when unlabelled).
	Labels map[string]string
	// Value is the parsed sample value.
	Value float64
}

// Le returns the sample's "le" label parsed as a float, or NaN when
// absent or malformed. "+Inf" parses to +Inf.
func (s Sample) Le() float64 {
	v, ok := s.Labels["le"]
	if !ok {
		return math.NaN()
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return math.NaN()
	}
	return f
}

// Family is one metric family: a TYPE declaration and its samples.
type Family struct {
	// Name is the family name from the TYPE line.
	Name string
	// Type is "counter", "gauge", "histogram", or another declared type.
	Type string
	// Help is the HELP text, unescaped; empty when no HELP line was seen.
	Help string
	// Samples are the family's samples in exposition order.
	Samples []Sample
}

// Sample returns the first sample with the given full name and, when
// withLe is non-empty, a matching "le" label.
func (f *Family) Sample(name, withLe string) (Sample, bool) {
	for _, s := range f.Samples {
		if s.Name != name {
			continue
		}
		if withLe != "" && s.Labels["le"] != withLe {
			continue
		}
		return s, true
	}
	return Sample{}, false
}

// Exposition is one parsed exposition document.
type Exposition struct {
	// Families in document order.
	Families []*Family
	// SawEOF reports whether the document ended with "# EOF".
	SawEOF bool

	byName map[string]*Family
}

// Family returns the named family, or nil.
func (e *Exposition) Family(name string) *Family { return e.byName[name] }

// Names returns the family names in lexical order.
func (e *Exposition) Names() []string {
	out := make([]string, 0, len(e.byName))
	for k := range e.byName {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// validNameRune reports whether r may appear in a metric or label name
// at byte position i.
func validNameRune(r rune, i int, label bool) bool {
	if r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') {
		return true
	}
	if !label && r == ':' {
		return true
	}
	return r >= '0' && r <= '9' && i > 0
}

// ValidName reports whether name is a valid exposition metric name.
func ValidName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		if !validNameRune(r, i, false) {
			return false
		}
	}
	return true
}

// familyOf maps a sample name onto its family name by stripping the
// conventional suffixes, preferring an exact family match first (a
// counter family literally named "x_total" exposes samples "x_total").
func (e *Exposition) familyOf(sample string) *Family {
	if f := e.byName[sample]; f != nil {
		return f
	}
	for _, suf := range []string{"_total", "_bucket", "_sum", "_count", "_created"} {
		if base, ok := strings.CutSuffix(sample, suf); ok {
			if f := e.byName[base]; f != nil {
				return f
			}
		}
	}
	return nil
}

// unescapeLabel reverses the exposition escaping of a label value:
// \\ -> \, \" -> ", \n -> newline.
func unescapeLabel(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("dangling backslash")
		}
		switch s[i] {
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		case 'n':
			b.WriteByte('\n')
		default:
			return "", fmt.Errorf("bad escape \\%c", s[i])
		}
	}
	return b.String(), nil
}

// parseLabels parses `name="value",...` between braces.
func parseLabels(s string) (map[string]string, error) {
	labels := make(map[string]string)
	i := 0
	for i < len(s) {
		// label name
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i >= len(s) {
			return nil, fmt.Errorf("label without '='")
		}
		name := s[start:i]
		if name == "" {
			return nil, fmt.Errorf("empty label name")
		}
		for j, r := range name {
			if !validNameRune(r, j, true) {
				return nil, fmt.Errorf("bad label name %q", name)
			}
		}
		i++ // '='
		if i >= len(s) || s[i] != '"' {
			return nil, fmt.Errorf("label %q value not quoted", name)
		}
		i++
		start = i
		for i < len(s) {
			if s[i] == '\\' {
				i += 2
				continue
			}
			if s[i] == '"' {
				break
			}
			i++
		}
		if i >= len(s) {
			return nil, fmt.Errorf("label %q value not terminated", name)
		}
		val, err := unescapeLabel(s[start:i])
		if err != nil {
			return nil, fmt.Errorf("label %q: %v", name, err)
		}
		if _, dup := labels[name]; dup {
			return nil, fmt.Errorf("duplicate label %q", name)
		}
		labels[name] = val
		i++ // closing quote
		if i < len(s) {
			if s[i] != ',' {
				return nil, fmt.Errorf("expected ',' after label %q", name)
			}
			i++
		}
	}
	if len(labels) == 0 {
		return nil, nil
	}
	return labels, nil
}

// Parse reads one exposition document. It is strict about structure
// (TYPE lines, sample syntax, nothing after # EOF) and returns the
// first error with its line number.
func Parse(r io.Reader) (*Exposition, error) {
	e := &Exposition{byName: make(map[string]*Family)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if e.SawEOF && strings.TrimSpace(line) != "" {
			return nil, fmt.Errorf("line %d: content after # EOF", lineNo)
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if line == "# EOF" {
				e.SawEOF = true
				continue
			}
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || fields[0] != "#" {
				return nil, fmt.Errorf("line %d: malformed comment %q (only HELP/TYPE/UNIT/EOF allowed)", lineNo, line)
			}
			kind, name := fields[1], fields[2]
			rest := ""
			if len(fields) == 4 {
				rest = fields[3]
			}
			switch kind {
			case "HELP":
				f := e.ensureFamily(name)
				if help, err := unescapeLabel(rest); err == nil {
					f.Help = help
				} else {
					f.Help = rest
				}
			case "TYPE":
				if rest == "" {
					return nil, fmt.Errorf("line %d: TYPE without a type", lineNo)
				}
				f := e.ensureFamily(name)
				if f.Type != "" {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				f.Type = rest
			case "UNIT":
				e.ensureFamily(name)
			default:
				return nil, fmt.Errorf("line %d: unknown comment kind %q", lineNo, kind)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		f := e.familyOf(s.Name)
		if f == nil {
			return nil, fmt.Errorf("line %d: sample %q has no TYPE declaration", lineNo, s.Name)
		}
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *Exposition) ensureFamily(name string) *Family {
	if f := e.byName[name]; f != nil {
		return f
	}
	f := &Family{Name: name}
	e.Families = append(e.Families, f)
	e.byName[name] = f
	return f
}

// parseSample parses `name{labels} value [timestamp]`.
func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("sample %q has no value", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if !ValidName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	if strings.HasPrefix(rest, "{") {
		end := -1
		// Find the closing brace outside quotes.
		inQuote := false
		for i := 1; i < len(rest); i++ {
			switch {
			case inQuote && rest[i] == '\\':
				i++
			case rest[i] == '"':
				inQuote = !inQuote
			case !inQuote && rest[i] == '}':
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("expected value [timestamp], got %q", strings.TrimSpace(rest))
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q", fields[0])
	}
	s.Value = v
	return s, nil
}

// Validate checks the invariants a well-formed obs exposition holds:
// the document ends with # EOF, every family has a known type and a
// valid name, counter samples are non-negative and carry the _total
// suffix, and histogram bucket series are cumulative, monotone,
// include le="+Inf", and agree with _count.
func (e *Exposition) Validate() error {
	if !e.SawEOF {
		return fmt.Errorf("openmetrics: missing # EOF terminator")
	}
	for _, f := range e.Families {
		if !ValidName(f.Name) {
			return fmt.Errorf("openmetrics: invalid family name %q", f.Name)
		}
		switch f.Type {
		case "counter":
			if err := validateCounter(f); err != nil {
				return err
			}
		case "gauge":
			if len(f.Samples) == 0 {
				return fmt.Errorf("openmetrics: gauge %q has no samples", f.Name)
			}
		case "histogram":
			if err := validateHistogram(f); err != nil {
				return err
			}
		case "":
			return fmt.Errorf("openmetrics: family %q has no TYPE", f.Name)
		}
		for _, s := range f.Samples {
			if !ValidName(s.Name) {
				return fmt.Errorf("openmetrics: invalid sample name %q", s.Name)
			}
		}
	}
	return nil
}

func validateCounter(f *Family) error {
	if len(f.Samples) == 0 {
		return fmt.Errorf("openmetrics: counter %q has no samples", f.Name)
	}
	for _, s := range f.Samples {
		if !strings.HasSuffix(s.Name, "_total") && !strings.HasSuffix(s.Name, "_created") {
			return fmt.Errorf("openmetrics: counter sample %q lacks the _total suffix", s.Name)
		}
		if s.Value < 0 || math.IsNaN(s.Value) {
			return fmt.Errorf("openmetrics: counter %q has invalid value %v", s.Name, s.Value)
		}
	}
	return nil
}

func validateHistogram(f *Family) error {
	var buckets []Sample
	var count, sum *Sample
	for i := range f.Samples {
		s := &f.Samples[i]
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			buckets = append(buckets, *s)
		case strings.HasSuffix(s.Name, "_count"):
			count = s
		case strings.HasSuffix(s.Name, "_sum"):
			sum = s
		}
	}
	if len(buckets) == 0 {
		return fmt.Errorf("openmetrics: histogram %q has no buckets", f.Name)
	}
	if count == nil || sum == nil {
		return fmt.Errorf("openmetrics: histogram %q lacks _count or _sum", f.Name)
	}
	prevLe := math.Inf(-1)
	prevCum := int64(-1)
	sawInf := false
	for _, b := range buckets {
		le := b.Le()
		if math.IsNaN(le) {
			return fmt.Errorf("openmetrics: histogram %q bucket lacks a numeric le label", f.Name)
		}
		if le <= prevLe {
			return fmt.Errorf("openmetrics: histogram %q buckets out of le order (%v after %v)", f.Name, le, prevLe)
		}
		cum := int64(b.Value)
		if cum < prevCum {
			return fmt.Errorf("openmetrics: histogram %q cumulative counts decrease at le=%v (%d after %d)", f.Name, le, cum, prevCum)
		}
		prevLe, prevCum = le, cum
		if math.IsInf(le, +1) {
			sawInf = true
			if int64(count.Value) != cum {
				return fmt.Errorf("openmetrics: histogram %q _count %v != +Inf bucket %d", f.Name, count.Value, cum)
			}
		}
	}
	if !sawInf {
		return fmt.Errorf("openmetrics: histogram %q lacks an le=\"+Inf\" bucket", f.Name)
	}
	return nil
}
