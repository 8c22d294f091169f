package trace

import (
	"errors"
	"io/fs"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sysfs"
)

func TestTraceDuration(t *testing.T) {
	tr := &Trace{Interval: 35 * time.Millisecond, Samples: make([]float64, 10)}
	if tr.Duration() != 350*time.Millisecond {
		t.Fatalf("Duration = %v", tr.Duration())
	}
}

func TestPrefix(t *testing.T) {
	tr := &Trace{Interval: time.Millisecond, Samples: []float64{1, 2, 3, 4, 5}}
	p, err := tr.Prefix(3 * time.Millisecond)
	if err != nil {
		t.Fatalf("Prefix: %v", err)
	}
	if len(p.Samples) != 3 || p.Samples[2] != 3 {
		t.Fatalf("Prefix samples = %v", p.Samples)
	}
	if _, err := tr.Prefix(10 * time.Millisecond); err == nil {
		t.Fatal("over-long prefix accepted")
	}
	if _, err := (&Trace{}).Prefix(time.Second); err == nil {
		t.Fatal("zero-interval prefix accepted")
	}
}

func TestResampleDownAveragesBins(t *testing.T) {
	tr := &Trace{Interval: time.Millisecond, Samples: []float64{1, 3, 5, 7}}
	out, err := tr.Resample(2)
	if err != nil {
		t.Fatalf("Resample: %v", err)
	}
	if out[0] != 2 || out[1] != 6 {
		t.Fatalf("Resample = %v, want [2 6]", out)
	}
}

func TestResampleUpCarriesForward(t *testing.T) {
	tr := &Trace{Interval: time.Millisecond, Samples: []float64{4, 8}}
	out, err := tr.Resample(4)
	if err != nil {
		t.Fatalf("Resample: %v", err)
	}
	want := []float64{4, 4, 8, 8}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Resample = %v, want %v", out, want)
		}
	}
}

func TestResampleErrors(t *testing.T) {
	tr := &Trace{Interval: time.Millisecond, Samples: []float64{1}}
	if _, err := tr.Resample(0); err == nil {
		t.Fatal("zero bins accepted")
	}
	if _, err := (&Trace{Interval: time.Millisecond}).Resample(4); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestNewRecorderValidation(t *testing.T) {
	probe := func() (float64, error) { return 1, nil }
	if _, err := NewRecorder(0, probe); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := NewRecorder(time.Millisecond, nil); err == nil {
		t.Fatal("nil probe accepted")
	}
}

func TestRecorderSamplesAtRate(t *testing.T) {
	n := 0.0
	probe := func() (float64, error) { n++; return n, nil }
	r, err := NewRecorder(time.Millisecond, probe)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	// 10 ms of 250 us ticks -> 10 samples.
	for i := 0; i < 40; i++ {
		r.Step(0, 250*time.Microsecond)
	}
	tr, err := r.Trace()
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if len(tr.Samples) != 10 {
		t.Fatalf("samples = %d, want 10", len(tr.Samples))
	}
	if tr.Samples[0] != 1 || tr.Samples[9] != 10 {
		t.Fatalf("samples = %v", tr.Samples)
	}
}

func TestRecorderTickCoarserThanInterval(t *testing.T) {
	probe := func() (float64, error) { return 7, nil }
	r, _ := NewRecorder(time.Millisecond, probe)
	// One 5 ms tick must yield 5 samples (catch-up), not 1.
	r.Step(0, 5*time.Millisecond)
	tr, _ := r.Trace()
	if len(tr.Samples) != 5 {
		t.Fatalf("samples = %d, want 5", len(tr.Samples))
	}
}

func TestRecorderStopsOnError(t *testing.T) {
	calls := 0
	boom := errors.New("denied")
	probe := func() (float64, error) {
		calls++
		if calls > 3 {
			return 0, boom
		}
		return 1, nil
	}
	r, _ := NewRecorder(time.Millisecond, probe)
	for i := 0; i < 10; i++ {
		r.Step(0, time.Millisecond)
	}
	tr, err := r.Trace()
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(tr.Samples) != 3 {
		t.Fatalf("samples = %d, want 3 before failure", len(tr.Samples))
	}
	if calls != 4 {
		t.Fatalf("probe calls = %d, want polling to stop after failure", calls)
	}
}

func TestRecorderReset(t *testing.T) {
	probe := func() (float64, error) { return 1, nil }
	r, _ := NewRecorder(time.Millisecond, probe)
	r.Step(0, 5*time.Millisecond)
	r.Reset()
	tr, err := r.Trace()
	if err != nil || len(tr.Samples) != 0 {
		t.Fatalf("after Reset: %v samples, err %v", len(tr.Samples), err)
	}
}

// TestRecorderResetKeepsReservation: a Reset right after Reserve keeps
// the reserved array, and a trace handed out before a Reset keeps its
// samples while the recorder records into the next one.
func TestRecorderResetKeepsReservation(t *testing.T) {
	v := 1.0
	r, _ := NewRecorder(time.Millisecond, func() (float64, error) { return v, nil })
	r.Reserve(8)
	before, _ := r.Trace()
	r.Reset()
	after, _ := r.Trace()
	if cap(after.Samples) < 8 || &before.Samples[:1][0] != &after.Samples[:1][0] {
		t.Fatal("Reset after Reserve allocated a new array")
	}
	r.Step(0, 3*time.Millisecond)
	kept, _ := r.Trace()
	r.Reset()
	v = 2
	r.Step(0, 3*time.Millisecond)
	next, _ := r.Trace()
	if len(kept.Samples) != 3 || kept.Samples[0] != 1 || len(next.Samples) != 3 || next.Samples[0] != 2 {
		t.Fatalf("recording after Reset reached the earlier trace: kept %v, next %v", kept.Samples, next.Samples)
	}
}

func TestSysfsProbe(t *testing.T) {
	fsys := sysfs.New()
	if err := fsys.AddAttr("class/hwmon/hwmon0/curr1_input", sysfs.Attr{
		Mode: sysfs.ModeRO,
		Show: func() (string, error) { return "1234\n", nil },
	}); err != nil {
		t.Fatalf("AddAttr: %v", err)
	}
	probe := SysfsProbe(fsys, sysfs.Nobody, "class/hwmon/hwmon0/curr1_input", 1e-3)
	v, err := probe()
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if math.Abs(v-1.234) > 1e-12 {
		t.Fatalf("probe = %v, want 1.234", v)
	}
}

func TestSysfsProbePermissionError(t *testing.T) {
	fsys := sysfs.New()
	if err := fsys.AddAttr("a/v", sysfs.Attr{
		Mode: sysfs.ModeRootOnly,
		Show: func() (string, error) { return "1", nil },
	}); err != nil {
		t.Fatalf("AddAttr: %v", err)
	}
	probe := SysfsProbe(fsys, sysfs.Nobody, "a/v", 1)
	if _, err := probe(); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("err = %v, want ErrPermission", err)
	}
}

func TestSysfsProbeParseError(t *testing.T) {
	fsys := sysfs.New()
	if err := fsys.AddAttr("a/v", sysfs.Attr{
		Mode: sysfs.ModeRO,
		Show: func() (string, error) { return "garbage", nil },
	}); err != nil {
		t.Fatalf("AddAttr: %v", err)
	}
	probe := SysfsProbe(fsys, sysfs.Nobody, "a/v", 1)
	if _, err := probe(); err == nil {
		t.Fatal("garbage parsed")
	}
}

// Property: Resample(n) preserves the overall mean when n divides the
// sample count.
func TestResampleMeanProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 8
		samples := make([]float64, 64)
		x := float64(seed % 1000)
		var sum float64
		for i := range samples {
			x = math.Mod(x*1.7+3.1, 97)
			samples[i] = x
			sum += x
		}
		tr := &Trace{Interval: time.Millisecond, Samples: samples}
		out, err := tr.Resample(n)
		if err != nil {
			return false
		}
		var outSum float64
		for _, v := range out {
			outSum += v
		}
		return math.Abs(outSum/float64(n)-sum/64) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
