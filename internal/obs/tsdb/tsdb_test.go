package tsdb

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func sec(n int64) int64 { return n * int64(time.Second) }

func TestDownsampleAlignsAndAggregates(t *testing.T) {
	pts := []Point{
		{T: sec(0), V: 1}, {T: sec(0) + 5e8, V: 3},
		{T: sec(1), V: 2},
		{T: sec(3) + 1, V: 10}, // sec(2) empty: no window emitted
	}
	ws := Downsample(pts, sec(1))
	if len(ws) != 3 {
		t.Fatalf("windows = %d, want 3 (empty windows are not emitted)", len(ws))
	}
	w0 := ws[0]
	if w0.Start != 0 || w0.End != sec(1) {
		t.Fatalf("w0 span = [%d,%d)", w0.Start, w0.End)
	}
	if w0.Count != 2 || w0.Min != 1 || w0.Max != 3 || w0.Mean != 2 || w0.First != 1 || w0.Last != 3 {
		t.Fatalf("w0 = %+v", w0)
	}
	if ws[2].Start != sec(3) || ws[2].Count != 1 {
		t.Fatalf("w2 = %+v", ws[2])
	}
}

func TestDownsampleSkipsNonFinite(t *testing.T) {
	pts := []Point{{T: 1, V: math.NaN()}, {T: 2, V: math.Inf(1)}, {T: 3, V: 7}}
	ws := Downsample(pts, sec(1))
	if len(ws) != 1 || ws[0].Count != 1 || ws[0].Mean != 7 {
		t.Fatalf("windows = %+v", ws)
	}
}

func TestMergeWindowsBoundary(t *testing.T) {
	a := []Point{{T: 0, V: 1}, {T: sec(1), V: 2}}
	b := []Point{{T: sec(1) + 1, V: 4}, {T: sec(2), V: 8}}
	merged := MergeWindows(Downsample(a, sec(1)), Downsample(b, sec(1)))
	whole := Downsample(append(append([]Point{}, a...), b...), sec(1))
	if len(merged) != len(whole) {
		t.Fatalf("merged %d windows, whole %d", len(merged), len(whole))
	}
	for i := range merged {
		if merged[i] != whole[i] {
			t.Fatalf("window %d: merged %+v vs whole %+v", i, merged[i], whole[i])
		}
	}
	// The shared second window really merged: count 2, first 2, last 4.
	if merged[1].Count != 2 || merged[1].First != 2 || merged[1].Last != 4 {
		t.Fatalf("boundary window = %+v", merged[1])
	}
}

func TestStoreRangeAndKinds(t *testing.T) {
	s := New(Options{})
	for i := int64(0); i < 5; i++ {
		s.Append("c", Counter, sec(i), float64(i*10))
	}
	s.Append("g", Gauge, sec(0), 3.5)
	if k, ok := s.Kind("c"); !ok || k != Counter {
		t.Fatalf("Kind(c) = %v %v", k, ok)
	}
	if _, ok := s.Kind("nope"); ok {
		t.Fatal("Kind invented a series")
	}
	got := s.Range("c", sec(1), sec(3))
	if len(got) != 3 || got[0].V != 10 || got[2].V != 30 {
		t.Fatalf("Range = %+v", got)
	}
	names := s.SeriesNames()
	if len(names) != 2 || names[0] != "c" || names[1] != "g" {
		t.Fatalf("SeriesNames = %v", names)
	}
}

func TestStoreRawEviction(t *testing.T) {
	s := New(Options{RawCapacity: 4})
	for i := int64(0); i < 10; i++ {
		s.Append("c", Counter, sec(i), float64(i))
	}
	pts := s.Range("c", 0, math.MaxInt64)
	if len(pts) != 4 || pts[0].V != 6 || pts[3].V != 9 {
		t.Fatalf("retained = %+v", pts)
	}
	st := s.Stats()
	if st.Samples != 10 || st.Evictions != 6 || st.Points != 4 || st.Series != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStoreTierOutlivesRaw(t *testing.T) {
	// Raw keeps 4 points; the 2 s tier keeps windows far beyond that.
	s := New(Options{RawCapacity: 4, Tiers: []TierSpec{{Width: sec(2), Capacity: 32}}})
	for i := int64(0); i < 20; i++ {
		s.Append("c", Counter, sec(i), float64(i))
	}
	ws := s.Windows("c", sec(2), 0, math.MaxInt64)
	if len(ws) != 10 {
		t.Fatalf("tier windows = %d, want 10", len(ws))
	}
	if ws[0].Start != 0 || ws[0].Count != 2 || ws[0].First != 0 || ws[0].Last != 1 {
		t.Fatalf("first tier window = %+v", ws[0])
	}
	// The last window is the open one, covering t=18,19.
	last := ws[len(ws)-1]
	if last.Start != sec(18) || last.Count != 2 || last.Last != 19 {
		t.Fatalf("open window = %+v", last)
	}
	// A width with no tier falls back to downsampled raw (short reach).
	raw := s.Windows("c", sec(1), 0, math.MaxInt64)
	if len(raw) != 4 {
		t.Fatalf("raw-downsample windows = %d, want 4", len(raw))
	}
}

func TestDumpDeterministic(t *testing.T) {
	build := func() *Store {
		s := New(Options{RawCapacity: 8, Tiers: []TierSpec{{Width: sec(2), Capacity: 4}}})
		for i := int64(0); i < 12; i++ {
			s.Append("a", Counter, sec(i), float64(i))
			s.Append("b", Gauge, sec(i), float64(i%3))
		}
		return s
	}
	d1, err := json.Marshal(build().Dump())
	if err != nil {
		t.Fatal(err)
	}
	d2, err := json.Marshal(build().Dump())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatalf("identical append sequences dumped differently:\n%s\n%s", d1, d2)
	}
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{Gauge, Counter} {
		got, err := KindFromString(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v -> %q -> %v, %v", k, k.String(), got, err)
		}
	}
	if _, err := KindFromString("bogus"); err == nil {
		t.Fatal("bogus kind parsed")
	}
}
