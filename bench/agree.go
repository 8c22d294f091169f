package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the program reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// bound is an end-to-end metric with the share of its median by which
// it may move.
type bound struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readSpec(path string) (spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec{}, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// runRecord is one saved run: the output of a --trace 0 run.
type runRecord struct {
	file, workload, digest string
	res                    result
}

func parseRun(file, text string) (runRecord, error) {
	rec := runRecord{file: file}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	for _, l := range lines {
		f := strings.Fields(l)
		switch {
		case len(f) >= 2 && f[0] == "workload":
			rec.workload = f[1]
		case len(f) == 2 && f[0] == "digest":
			rec.digest = f[1]
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.res); err != nil {
		return rec, fmt.Errorf("%s: last line: %w", file, err)
	}
	if rec.workload == "" || rec.digest == "" {
		return rec, fmt.Errorf("%s: no workload or digest line", file)
	}
	return rec, nil
}

func readRunDir(dir string) ([]runRecord, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.out"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no *.out run outputs", dir)
	}
	var recs []runRecord
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		rec, err := parseRun(f, string(raw))
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func agreeDirs(a, b string, s spec, out io.Writer) (bool, error) {
	ra, err := readRunDir(a)
	if err != nil {
		return false, err
	}
	rb, err := readRunDir(b)
	if err != nil {
		return false, err
	}
	if len(s.EndToEnd) == 0 {
		return false, errors.New("BENCHMARK.json lists no end-to-end metrics")
	}
	return agree(ra, rb, s.EndToEnd, out), nil
}

// maxWallSpread is the widest quartile spread of wall_s, as a share of
// its median, that a set may show; a noisier workload needs a longer
// run, not a wider bound.
const maxWallSpread = 0.10

// agree compares two sets of runs of the same code, workload by
// workload: every run must be correct, all report digests must be
// equal, and each end-to-end metric's medians must differ by no more
// than its bound.
func agree(a, b []runRecord, bounds []bound, out io.Writer) bool {
	ok := true
	fail := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(out, "FAIL "+format+"\n", args...)
	}
	byA, byB := groupRuns(a), groupRuns(b)
	names := map[string]bool{}
	for n := range byA {
		names[n] = true
	}
	for n := range byB {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		ra, rb := byA[name], byB[name]
		if len(ra) == 0 || len(rb) == 0 {
			fail("%s: runs in only one set", name)
			continue
		}
		fmt.Fprintf(out, "%s: %d vs %d runs (q1 / median / q3)\n", name, len(ra), len(rb))
		digest := ra[0].digest
		for _, r := range append(append([]runRecord(nil), ra...), rb...) {
			if r.digest != digest {
				fail("%s: %s digest %.12s differs from %.12s", name, r.file, r.digest, digest)
			}
			if !r.res.Correct {
				fail("%s: %s is not correct", name, r.file)
			}
		}
		for _, m := range bounds {
			va, errA := metricValues(ra, m.Name)
			vb, errB := metricValues(rb, m.Name)
			if err := errors.Join(errA, errB); err != nil {
				fail("%s: %v", name, err)
				continue
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			diff := relDiff(am, bm)
			verdict := "ok"
			if math.Abs(diff) > m.Bound {
				verdict = "FAIL"
				ok = false
			}
			fmt.Fprintf(out, "  %-12s A %.6g / %.6g / %.6g  B %.6g / %.6g / %.6g  diff %+.2f%% bound %.0f%% %s\n",
				m.Name, a1, am, a3, b1, bm, b3, 100*diff, 100*m.Bound, verdict)
			if m.Name == "wall_s" {
				for set, q := range map[string][3]float64{"A": {a1, am, a3}, "B": {b1, bm, b3}} {
					if spread := (q[2] - q[0]) / q[1]; spread > maxWallSpread {
						fail("%s: wall_s spread %.1f%% in set %s exceeds %.0f%%; lengthen the workload",
							name, 100*spread, set, 100*maxWallSpread)
					}
				}
			}
		}
	}
	return ok
}

func groupRuns(rs []runRecord) map[string][]runRecord {
	m := map[string][]runRecord{}
	for _, r := range rs {
		m[r.workload] = append(m[r.workload], r)
	}
	return m
}

func metricValues(rs []runRecord, name string) ([]float64, error) {
	vs := make([]float64, 0, len(rs))
	for _, r := range rs {
		m, ok := r.res.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("%s lacks metric %s", r.file, name)
		}
		vs = append(vs, m.Value)
	}
	return vs, nil
}

// relDiff is b's change from a as a share of a.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	return (b - a) / math.Abs(a)
}

// quartiles returns the first quartile, median and third quartile with
// the method of Python's statistics.quantiles(xs, n=4), which is how
// run-to-run spread is judged.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}
