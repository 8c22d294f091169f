package core

import (
	"bytes"
	"errors"
	"io/fs"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/board"
	"repro/internal/dpu"
	"repro/internal/fabric"
	"repro/internal/imagenet"
	"repro/internal/ro"
	"repro/internal/stats"
	"repro/internal/sysfs"
	"repro/internal/virus"
)

func newBoard(t *testing.T) *board.ZCU102 {
	t.Helper()
	b, err := board.NewZCU102(board.Config{Seed: 5})
	if err != nil {
		t.Fatalf("NewZCU102: %v", err)
	}
	b.Run(100 * time.Millisecond)
	return b
}

func TestKindAttr(t *testing.T) {
	cases := []struct {
		kind  Kind
		attr  string
		scale float64
	}{
		{Current, "curr1_input", 1e-3},
		{Voltage, "in1_input", 1e-3},
		{Power, "power1_input", 1e-6},
	}
	for _, c := range cases {
		attr, scale, err := c.kind.attr()
		if err != nil || attr != c.attr || scale != c.scale {
			t.Errorf("%s: attr=%s scale=%v err=%v", c.kind, attr, scale, err)
		}
	}
	if _, _, err := Kind("bogus").attr(); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

func TestChannelString(t *testing.T) {
	ch := Channel{Label: "ina226_u79", Kind: Current}
	if ch.String() != "Current (ina226_u79)" {
		t.Fatalf("String = %q", ch.String())
	}
}

func TestNewAttackerValidation(t *testing.T) {
	if _, err := NewAttacker(nil, sysfs.Nobody); err == nil {
		t.Fatal("nil sysfs accepted")
	}
}

func TestAttackerDiscover(t *testing.T) {
	b := newBoard(t)
	a, err := NewAttacker(b.Sysfs(), sysfs.Nobody)
	if err != nil {
		t.Fatalf("NewAttacker: %v", err)
	}
	sensors, err := a.Discover()
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if len(sensors) != 18 {
		t.Fatalf("discovered %d sensors, want 18", len(sensors))
	}
	labels := map[string]bool{}
	for _, s := range sensors {
		if s.Name != "ina226" {
			t.Errorf("sensor %s has driver name %q", s.Label, s.Name)
		}
		labels[s.Label] = true
	}
	for _, want := range []string{board.SensorCPUFull, board.SensorCPULow,
		board.SensorFPGA, board.SensorDDR} {
		if !labels[want] {
			t.Errorf("sensitive sensor %s not discovered", want)
		}
	}
	// hwmon index order.
	if sensors[0].Dir != "class/hwmon/hwmon0" {
		t.Errorf("first sensor dir = %s", sensors[0].Dir)
	}
}

func TestAttackerProbe(t *testing.T) {
	b := newBoard(t)
	a, _ := NewAttacker(b.Sysfs(), sysfs.Nobody)
	probe, err := a.Probe(Channel{Label: board.SensorFPGA, Kind: Current})
	if err != nil {
		t.Fatalf("Probe: %v", err)
	}
	v, err := probe()
	if err != nil {
		t.Fatalf("probe read: %v", err)
	}
	if v < 0.4 || v > 0.8 {
		t.Fatalf("idle FPGA current = %v A, want ~0.55", v)
	}
	if _, err := a.Probe(Channel{Label: "ina226_u404", Kind: Current}); err == nil {
		t.Fatal("unknown sensor accepted")
	}
	if _, err := a.Probe(Channel{Label: board.SensorFPGA, Kind: "bogus"}); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

// TestAttackerSeesPowerVirus is the paper's core observation end to
// end: an unprivileged probe of the FPGA current sees 100 power-virus
// groups (100 k instances) switch on as a step of about 4 A, 40 mA per
// group at the Fig. 2 calibration.
func TestAttackerSeesPowerVirus(t *testing.T) {
	b, err := board.NewZCU102(board.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewAttacker(b.Sysfs(), sysfs.Nobody)
	array, err := virus.New(virus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := array.Deploy(b.Fabric()); err != nil {
		t.Fatal(err)
	}
	probe, err := a.Probe(Channel{Label: board.SensorFPGA, Kind: Current})
	if err != nil {
		t.Fatal(err)
	}
	b.Run(100 * time.Millisecond)
	idle, err := probe()
	if err != nil {
		t.Fatal(err)
	}
	if err := array.SetActiveGroups(100); err != nil {
		t.Fatal(err)
	}
	b.Run(100 * time.Millisecond)
	busy, err := probe()
	if err != nil {
		t.Fatal(err)
	}
	if step := busy - idle; step < 3.5 || step >= 4.5 {
		t.Fatalf("100-group step = %v A, want about 4", step)
	}
}

func TestAttackerNewRecorder(t *testing.T) {
	b := newBoard(t)
	a, _ := NewAttacker(b.Sysfs(), sysfs.Nobody)
	rec, err := a.NewRecorder(Channel{Label: board.SensorFPGA, Kind: Current}, 35*time.Millisecond)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	b.Engine().MustRegister("rec", rec)
	b.Run(350 * time.Millisecond)
	tr, err := rec.Trace()
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if len(tr.Samples) != 10 {
		t.Fatalf("samples = %d, want 10", len(tr.Samples))
	}
}

func TestCharacterizeShape(t *testing.T) {
	res, err := Characterize(CharacterizeConfig{Levels: 21, SamplesPerLevel: 10})
	if err != nil {
		t.Fatalf("Characterize: %v", err)
	}
	if len(res.Readings) != 21 {
		t.Fatalf("readings = %d", len(res.Readings))
	}
	// Current: strongly positive, ~40 LSB (mA) per 1k-instance group.
	if res.Current.Pearson < 0.99 {
		t.Errorf("current Pearson = %v, want > 0.99 (paper 0.999)", res.Current.Pearson)
	}
	if res.Current.LSBPerLevel < 30 || res.Current.LSBPerLevel > 50 {
		t.Errorf("current LSB/level = %v, want ~40", res.Current.LSBPerLevel)
	}
	// Power: strongly positive, 1-2 LSB per group.
	if res.Power.Pearson < 0.99 {
		t.Errorf("power Pearson = %v, want > 0.99 (paper 0.999)", res.Power.Pearson)
	}
	if res.Power.LSBPerLevel < 0.5 || res.Power.LSBPerLevel > 3 {
		t.Errorf("power LSB/level = %v, want 1-2", res.Power.LSBPerLevel)
	}
	// Voltage: correlated in magnitude but only a couple of LSBs total.
	if math.Abs(res.Voltage.Pearson) < 0.5 {
		t.Errorf("voltage |Pearson| = %v, want moderate-strong", math.Abs(res.Voltage.Pearson))
	}
	if math.Abs(res.Voltage.LSBPerLevel)*20 > 6 {
		t.Errorf("voltage swings %v LSB over the sweep, want a few",
			math.Abs(res.Voltage.LSBPerLevel)*20)
	}
	// RO: anticorrelated.
	if res.RO.Pearson > -0.9 {
		t.Errorf("RO Pearson = %v, want < -0.9 (paper -0.996)", res.RO.Pearson)
	}
	// Current responds monotonically: every reading above the previous.
	for i := 1; i < len(res.Readings); i++ {
		if res.Readings[i].CurrentAmps <= res.Readings[i-1].CurrentAmps {
			t.Fatalf("current not monotone at level %d", i)
		}
	}
	// Voltage never leaves the stabilizer band.
	for _, r := range res.Readings {
		if r.BusVolts < 0.8 || r.BusVolts > 0.9 {
			t.Fatalf("voltage %v outside plausible band", r.BusVolts)
		}
	}
}

func TestCharacterizeVariationRatioFullSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full 161-level sweep")
	}
	res, err := Characterize(CharacterizeConfig{SamplesPerLevel: 10})
	if err != nil {
		t.Fatalf("Characterize: %v", err)
	}
	// Paper: 261× greater variations than RO; EXPERIMENTS.md's band.
	if res.VariationRatio < 200 || res.VariationRatio > 330 {
		t.Errorf("variation ratio = %v, want within [200, 330] (paper 261)", res.VariationRatio)
	}
	// The remaining Fig. 2 shape bounds of the bench harness's check.
	if res.Current.Pearson < 0.999 {
		t.Errorf("current Pearson = %v, want >= 0.999", res.Current.Pearson)
	}
	if res.Power.Pearson < 0.999 {
		t.Errorf("power Pearson = %v, want >= 0.999", res.Power.Pearson)
	}
	if res.RO.Pearson > -0.99 {
		t.Errorf("RO Pearson = %v, want <= -0.99", res.RO.Pearson)
	}
	if res.Current.LSBPerLevel < 35 || res.Current.LSBPerLevel > 45 {
		t.Errorf("current LSB/level = %v, want within [35, 45]", res.Current.LSBPerLevel)
	}
	t.Logf("ratio %.1f, current r %.5f, RO r %.5f, %.2f LSB/level",
		res.VariationRatio, res.Current.Pearson, res.RO.Pearson, res.Current.LSBPerLevel)
}

// railProbe is a fabric circuit that records the lowest rail voltage
// any tick showed, read where the RO bank reads it: inside the tick.
type railProbe struct {
	volts func() float64
	low   float64
}

func (p *railProbe) CircuitName() string           { return "rail-probe" }
func (p *railProbe) Utilization() fabric.Resources { return fabric.Resources{} }
func (p *railProbe) ActiveElements() float64       { return 0 }
func (p *railProbe) Step(now, dt time.Duration)    { p.low = min(p.low, p.volts()) }

// TestFig2ROClampCannotFire: the RO bank steps a tick oscillator by
// oscillator only when some loop's frequency could go negative. Fig. 2's
// worst case — stabilizer off, every virus group on, the most active
// clock region's local droop — must leave the deterministic frequency
// thousands of jitter σ above zero, so that path never runs there.
func TestFig2ROClampCannotFire(t *testing.T) {
	b, err := board.NewZCU102(board.Config{Seed: 1, DisableStabilizer: true})
	if err != nil {
		t.Fatalf("NewZCU102: %v", err)
	}
	array, err := virus.New(virus.Config{Groups: virus.DefaultGroups})
	if err != nil {
		t.Fatalf("virus.New: %v", err)
	}
	if err := array.Deploy(b.Fabric()); err != nil {
		t.Fatalf("Deploy virus: %v", err)
	}
	rail, err := b.Rail(board.RailFPGA)
	if err != nil {
		t.Fatalf("Rail: %v", err)
	}
	cfg := roBaseline(b, rail)
	bank, err := ro.New(cfg)
	if err != nil {
		t.Fatalf("ro.New: %v", err)
	}
	if err := bank.Deploy(b.Fabric()); err != nil {
		t.Fatalf("Deploy bank: %v", err)
	}
	probe := &railProbe{volts: rail.Voltage, low: math.Inf(1)}
	b.Fabric().MustPlace(probe, b.Fabric().SpreadEvenly())
	if err := array.SetActiveGroups(virus.DefaultGroups); err != nil {
		t.Fatalf("SetActiveGroups: %v", err)
	}
	b.Run(time.Second)
	hottest := 0.0
	for _, row := range b.Fabric().RegionMap() {
		for _, a := range row {
			hottest = max(hottest, a)
		}
	}
	v := probe.low - cfg.LocalDroopVoltsPerElement*hottest
	f := cfg.BaseHz * (1 + cfg.VoltSensitivity*(v-cfg.NominalVolts))
	t.Logf("lowest rail %.4f V, largest local droop %.2g V: %.4g Hz = %.0f σ", probe.low,
		cfg.LocalDroopVoltsPerElement*hottest, f, f/cfg.JitterHz)
	if f < 1000*cfg.JitterHz {
		t.Fatalf("worst-case RO frequency %.4g Hz is only %.0f jitter σ above zero, want thousands", f, f/cfg.JitterHz)
	}
}

func TestCharacterizeValidation(t *testing.T) {
	if _, err := Characterize(CharacterizeConfig{Levels: 1}); err == nil {
		t.Fatal("single level accepted")
	}
	if _, err := Characterize(CharacterizeConfig{SamplesPerLevel: -1}); err == nil {
		t.Fatal("negative samples accepted")
	}
}

// tinyFingerprint is a fast Table III configuration for tests.
func tinyFingerprint() FingerprintConfig {
	return FingerprintConfig{
		Models:         []string{"MobileNet-V1", "SqueezeNet-1.1", "ResNet-50", "VGG-19"},
		TracesPerModel: 6,
		TraceDuration:  1 * time.Second,
		Durations:      []time.Duration{500 * time.Millisecond, 1 * time.Second},
		Folds:          3,
		Trees:          25,
	}
}

func TestFingerprintEndToEnd(t *testing.T) {
	cfg := tinyFingerprint()
	cfg.Channels = []Channel{
		{Label: board.SensorFPGA, Kind: Current},
		{Label: board.SensorFPGA, Kind: Voltage},
	}
	res, err := Fingerprint(cfg)
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	if res.Classes != 4 {
		t.Fatalf("Classes = %d", res.Classes)
	}
	cur, err := res.Cell(Channel{Label: board.SensorFPGA, Kind: Current}, time.Second)
	if err != nil {
		t.Fatalf("Cell: %v", err)
	}
	vol, err := res.Cell(Channel{Label: board.SensorFPGA, Kind: Voltage}, time.Second)
	if err != nil {
		t.Fatalf("Cell: %v", err)
	}
	// The paper's headline: current ≫ voltage.
	if cur.Top1 < 0.9 {
		t.Errorf("FPGA current top1 = %v, want near-perfect", cur.Top1)
	}
	if vol.Top1 > cur.Top1-0.2 {
		t.Errorf("voltage top1 %v not clearly below current %v", vol.Top1, cur.Top1)
	}
	if cur.Top5 < cur.Top1 || vol.Top5 < vol.Top1 {
		t.Error("top5 below top1")
	}
	if _, err := res.Cell(Channel{Label: "zz", Kind: Current}, time.Second); err == nil {
		t.Fatal("bogus cell lookup accepted")
	}
}

func TestFingerprintValidation(t *testing.T) {
	cfg := tinyFingerprint()
	cfg.TracesPerModel = 2 // < folds
	if _, err := Fingerprint(cfg); err == nil {
		t.Fatal("traces < folds accepted")
	}
	cfg = tinyFingerprint()
	cfg.Durations = []time.Duration{10 * time.Second}
	if _, err := Fingerprint(cfg); err == nil {
		t.Fatal("duration > capture accepted")
	}
	cfg = tinyFingerprint()
	cfg.Models = []string{"NoSuchNet"}
	if _, err := CollectDPUTraces(cfg); err == nil {
		t.Fatal("unknown model accepted")
	}
	// Configs that evaluation cannot run: each is rejected before any
	// capture, by Validate, Fingerprint and EvaluateCaptures alike.
	for _, tc := range []struct {
		name string
		edit func(*FingerprintConfig)
	}{
		{"one fold", func(c *FingerprintConfig) { c.Folds = 1 }},
		{"negative folds", func(c *FingerprintConfig) { c.Folds = -2 }},
		{"one model", func(c *FingerprintConfig) { c.Models = []string{"VGG-11"} }},
		{"one model twice", func(c *FingerprintConfig) { c.Models = []string{"VGG-11", "VGG-11"} }},
		{"zero duration", func(c *FingerprintConfig) { c.Durations = []time.Duration{0} }},
		{"negative duration", func(c *FingerprintConfig) { c.Durations = []time.Duration{-time.Second} }},
		{"negative capture length", func(c *FingerprintConfig) {
			c.TraceDuration = -time.Second
			c.Durations = []time.Duration{-time.Second}
		}},
	} {
		cfg := tinyFingerprint()
		tc.edit(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
		}
		if _, err := Fingerprint(cfg); err == nil {
			t.Errorf("%s: Fingerprint accepted", tc.name)
		}
		if _, err := EvaluateCaptures(cfg, nil); err == nil || err.Error() == "core: no captures" {
			t.Errorf("%s: EvaluateCaptures error %v, want a config error", tc.name, err)
		}
	}
	// Collection needs neither two folds nor two models: bench collects
	// one model per call, benchtab fig3 with one fold.
	cfg = tinyFingerprint()
	cfg.Models, cfg.TracesPerModel, cfg.Folds = []string{"VGG-11"}, 1, 1
	cfg.Channels = []Channel{{Label: board.SensorFPGA, Kind: Current}}
	if caps, err := CollectDPUTraces(cfg); err != nil || len(caps) != 1 {
		t.Fatalf("one-model, one-fold collection: %d captures, %v", len(caps), err)
	}
}

func TestClassifierImportanceBreakdown(t *testing.T) {
	cfg := tinyFingerprint()
	cfg.Channels = []Channel{{Label: board.SensorFPGA, Kind: Current}}
	cfg.SpectralBins = 8
	caps, err := CollectDPUTraces(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := TrainClassifier(cfg, caps, cfg.Channels[0], time.Second)
	if err != nil {
		t.Fatalf("TrainClassifier: %v", err)
	}
	imp := clf.FeatureImportance()
	// 64 temporal + 6 summary + 8 spectral.
	if len(imp) != 78 {
		t.Fatalf("importance width = %d, want 78", len(imp))
	}
	bd := clf.Breakdown()
	total := bd.Temporal + bd.Summary + bd.Spectral
	if math.Abs(total-1) > 1e-6 {
		t.Fatalf("breakdown sums to %v: %+v", total, bd)
	}
	if bd.Temporal < 0 || bd.Summary < 0 || bd.Spectral < 0 {
		t.Fatalf("negative importance share: %+v", bd)
	}
}

func TestCollectDPUTracesDeterministic(t *testing.T) {
	cfg := FingerprintConfig{
		Models:         []string{"MobileNet-V1"},
		TracesPerModel: 1,
		TraceDuration:  500 * time.Millisecond,
		Durations:      []time.Duration{500 * time.Millisecond},
		Folds:          0, // defaults would fail validation (1 trace), so
		// collect only; set folds below traces manually.
	}
	cfg.Folds = 1
	// Folds=1 is invalid for Evaluate but CollectDPUTraces only checks
	// traces >= folds.
	run := func() []float64 {
		caps, err := CollectDPUTraces(cfg)
		if err != nil {
			t.Fatalf("CollectDPUTraces: %v", err)
		}
		if len(caps) != 1 {
			t.Fatalf("captures = %d", len(caps))
		}
		tr := caps[0].Traces[Channel{Label: board.SensorFPGA, Kind: Current}]
		if tr == nil || len(tr.Samples) == 0 {
			t.Fatal("missing FPGA current trace")
		}
		return tr.Samples
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different traces")
		}
	}
}

func TestCapturePersistenceRoundTrip(t *testing.T) {
	cfg := FingerprintConfig{
		Models:         []string{"MobileNet-V1", "VGG-19"},
		TracesPerModel: 2,
		TraceDuration:  500 * time.Millisecond,
		Durations:      []time.Duration{500 * time.Millisecond},
		Folds:          2,
		Channels:       []Channel{{Label: board.SensorFPGA, Kind: Current}},
	}
	caps, err := CollectDPUTraces(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveCaptures(&buf, caps); err != nil {
		t.Fatalf("SaveCaptures: %v", err)
	}
	loaded, err := LoadCaptures(&buf)
	if err != nil {
		t.Fatalf("LoadCaptures: %v", err)
	}
	if len(loaded) != len(caps) {
		t.Fatalf("loaded %d captures, want %d", len(loaded), len(caps))
	}
	ch := cfg.Channels[0]
	for i := range caps {
		a := caps[i].Traces[ch]
		b := loaded[i].Traces[ch]
		if b == nil || len(a.Samples) != len(b.Samples) || a.Interval != b.Interval {
			t.Fatalf("capture %d trace mismatch", i)
		}
		for j := range a.Samples {
			if a.Samples[j] != b.Samples[j] {
				t.Fatalf("capture %d sample %d mismatch", i, j)
			}
		}
		if loaded[i].Model != caps[i].Model || loaded[i].Rep != caps[i].Rep {
			t.Fatalf("capture %d metadata mismatch", i)
		}
	}
	// Loaded captures feed the classifier unchanged.
	if _, err := EvaluateCaptures(cfg, loaded); err != nil {
		t.Fatalf("EvaluateCaptures on loaded: %v", err)
	}
}

func TestCapturePersistenceErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveCaptures(&buf, nil); err == nil {
		t.Fatal("empty save accepted")
	}
	if _, err := LoadCaptures(strings.NewReader("[]")); err == nil {
		t.Fatal("empty stream accepted")
	}
	if _, err := LoadCaptures(strings.NewReader("{bad")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadCaptures(strings.NewReader(
		`[{"model":"m","rep":0,"traces":{"badkey":{"interval_ns":1,"samples":[1]}}}]`)); err == nil {
		t.Fatal("bad channel key accepted")
	}
	if _, err := LoadCaptures(strings.NewReader(
		`[{"model":"","rep":0,"traces":{}}]`)); err == nil {
		t.Fatal("incomplete capture accepted")
	}
}

func TestEvaluateCapturesRejectsEmpty(t *testing.T) {
	if _, err := EvaluateCaptures(tinyFingerprint(), nil); err == nil {
		t.Fatal("empty captures accepted")
	}
}

func TestRSAHammingWeightShape(t *testing.T) {
	// Adjacent paper weights (64 apart): current resolves all of them,
	// power merges neighbours into groups.
	res, err := RSAHammingWeight(RSAConfig{
		Weights: []int{1, 64, 128, 192, 256},
		Samples: 600,
	})
	if err != nil {
		t.Fatalf("RSAHammingWeight: %v", err)
	}
	if len(res.Keys) != 5 {
		t.Fatalf("keys = %d", len(res.Keys))
	}
	// Medians strictly increase with weight.
	for i := 1; i < len(res.Keys); i++ {
		if res.Keys[i].Current.Median <= res.Keys[i-1].Current.Median {
			t.Fatalf("current median not monotone at weight %d", res.Keys[i].Weight)
		}
	}
	if res.CurrentGroups != 5 {
		t.Fatalf("current groups = %d, want all 5 separable", res.CurrentGroups)
	}
	if res.PowerGroups >= res.CurrentGroups {
		t.Fatalf("power groups = %d, want fewer than current's %d",
			res.PowerGroups, res.CurrentGroups)
	}
	if res.CurrentPearson < 0.99 {
		t.Fatalf("current Pearson = %v", res.CurrentPearson)
	}
	if res.CurrentSpearman != 1 {
		t.Fatalf("current Spearman = %v, want exactly 1 (strictly monotone medians)", res.CurrentSpearman)
	}
	for _, k := range res.Keys {
		if k.Exponentiations == 0 {
			t.Fatalf("weight %d: victim completed no exponentiations", k.Weight)
		}
		if k.SearchSpaceReductionBits <= 0 {
			t.Fatalf("weight %d: no search-space reduction recorded", k.Weight)
		}
	}
}

func TestRSAFull17Keys(t *testing.T) {
	if testing.Short() {
		t.Skip("17-key sweep")
	}
	res, err := RSAHammingWeight(RSAConfig{Samples: 1500})
	if err != nil {
		t.Fatalf("RSAHammingWeight: %v", err)
	}
	if res.CurrentGroups != 17 {
		t.Errorf("current groups = %d, want 17 (paper: all separable)", res.CurrentGroups)
	}
	if res.PowerGroups < 3 || res.PowerGroups > 8 {
		t.Errorf("power groups = %d, want ~5 (paper)", res.PowerGroups)
	}
}

func TestRSAValidation(t *testing.T) {
	if _, err := RSAHammingWeight(RSAConfig{Samples: 2}); err == nil {
		t.Fatal("too few samples accepted")
	}
	if _, err := RSAHammingWeight(RSAConfig{Samples: 100, SampleInterval: -time.Second}); err == nil {
		t.Fatal("negative interval accepted")
	}
	if _, err := RSAHammingWeight(RSAConfig{Samples: 100, Weights: []int{0}}); err == nil {
		t.Fatal("weight 0 accepted (circuit does not support exponent 0)")
	}
}

func TestRSAVerifyDatapathMode(t *testing.T) {
	res, err := RSAHammingWeight(RSAConfig{
		Weights:        []int{64},
		Samples:        100,
		VerifyDatapath: true,
	})
	if err != nil {
		t.Fatalf("RSAHammingWeight(verify): %v", err)
	}
	if res.Keys[0].Exponentiations == 0 {
		t.Fatal("no exponentiations in verify mode")
	}
}

func TestRSAInterferenceDegradesAttack(t *testing.T) {
	quiet, err := RSAHammingWeight(RSAConfig{
		Weights: []int{1, 512, 1024}, Samples: 800,
	})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := RSAHammingWeight(RSAConfig{
		Weights: []int{1, 512, 1024}, Samples: 800,
		ConcurrentDPUModel: "VGG-19",
	})
	if err != nil {
		t.Fatal(err)
	}
	if quiet.CurrentGroups != 3 {
		t.Fatalf("quiet groups = %d, want 3", quiet.CurrentGroups)
	}
	// A busy co-resident DPU swamps the per-class spacing: the simple
	// box-statistics attack loses resolution.
	if noisy.CurrentGroups >= quiet.CurrentGroups {
		t.Fatalf("interference did not degrade grouping: %d vs %d",
			noisy.CurrentGroups, quiet.CurrentGroups)
	}
	if _, err := RSAHammingWeight(RSAConfig{
		Weights: []int{1}, Samples: 100, ConcurrentDPUModel: "NoSuchNet",
	}); err == nil {
		t.Fatal("unknown interference model accepted")
	}
}

func TestRSACountermeasureKillsLeak(t *testing.T) {
	res, err := RSAHammingWeight(RSAConfig{
		Weights:        []int{1, 512, 1024},
		Samples:        600,
		Countermeasure: true,
	})
	if err != nil {
		t.Fatalf("RSAHammingWeight(ladder): %v", err)
	}
	if res.CurrentGroups != 1 {
		t.Fatalf("ladder current groups = %d, want 1 (leak removed)", res.CurrentGroups)
	}
	if res.PowerGroups != 1 {
		t.Fatalf("ladder power groups = %d, want 1", res.PowerGroups)
	}
	if math.Abs(res.CurrentPearson) > 0.9 {
		t.Fatalf("ladder Pearson = %v, want no weight correlation", res.CurrentPearson)
	}
}

func TestAssessRSALeakage(t *testing.T) {
	plain, err := AssessRSALeakage(LeakageConfig{SamplesPerSession: 500, RandomSessions: 2})
	if err != nil {
		t.Fatalf("AssessRSALeakage: %v", err)
	}
	if !plain.TVLA.Leaks {
		t.Fatalf("plain victim passed TVLA (t=%v); the channel must leak", plain.TVLA.T)
	}
	if math.Abs(plain.TVLA.T) < 50 {
		t.Fatalf("plain victim t=%v, expected a decisive failure", plain.TVLA.T)
	}
	if plain.SNR < 100 {
		t.Fatalf("plain victim SNR = %v, expected large", plain.SNR)
	}

	ladder, err := AssessRSALeakage(LeakageConfig{
		SamplesPerSession: 500, RandomSessions: 2, Countermeasure: true,
	})
	if err != nil {
		t.Fatalf("AssessRSALeakage(ladder): %v", err)
	}
	if ladder.TVLA.Leaks {
		t.Fatalf("ladder victim failed TVLA (t=%v); the countermeasure should hold", ladder.TVLA.T)
	}
	if ladder.SNR > 0.5 {
		t.Fatalf("ladder victim SNR = %v, expected ~0", ladder.SNR)
	}
}

func TestAssessRSALeakageValidation(t *testing.T) {
	if _, err := AssessRSALeakage(LeakageConfig{SamplesPerSession: 2}); err == nil {
		t.Fatal("too few samples accepted")
	}
	if _, err := AssessRSALeakage(LeakageConfig{SamplesPerSession: 100, RandomSessions: -1}); err == nil {
		t.Fatal("negative sessions accepted")
	}
}

func TestMitigation(t *testing.T) {
	res, err := Mitigation(7)
	if err != nil {
		t.Fatalf("Mitigation: %v", err)
	}
	if res.BeforeAttacker <= 0 {
		t.Fatalf("attack did not work before mitigation: %v", res.BeforeAttacker)
	}
	if !errors.Is(res.AfterAttackerErr, fs.ErrPermission) {
		t.Fatalf("attacker error after mitigation = %v, want ErrPermission", res.AfterAttackerErr)
	}
	if res.AfterRoot <= 0 {
		t.Fatal("root monitoring broken by mitigation")
	}
	if !res.Effective() {
		t.Fatal("Effective() = false")
	}
}

func TestSurveyRanksActiveSensorsFirst(t *testing.T) {
	b, err := board.NewZCU102(board.Config{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	// Victim: a DPU running inference drives FPGA, DDR, and CPU rails.
	dpuVictim, err := deployDPUForTest(b)
	if err != nil {
		t.Fatal(err)
	}
	_ = dpuVictim
	b.Run(100 * time.Millisecond)
	a, _ := NewAttacker(b.Sysfs(), sysfs.Nobody)
	rows, err := Survey(b, a, 2*time.Second)
	if err != nil {
		t.Fatalf("Survey: %v", err)
	}
	if len(rows) != 18 {
		t.Fatalf("rows = %d, want 18", len(rows))
	}
	// The four sensitive sensors must outrank every misc rail.
	sensitive := map[string]bool{
		board.SensorCPUFull: true, board.SensorCPULow: true,
		board.SensorFPGA: true, board.SensorDDR: true,
	}
	for i := 0; i < 4; i++ {
		if !sensitive[rows[i].Label] {
			t.Fatalf("rank %d is %s (std %.4f), want a sensitive sensor; full ranking: %v",
				i, rows[i].Label, rows[i].StdAmps, rows)
		}
	}
	// Ordering is by descending std.
	for i := 1; i < len(rows); i++ {
		if rows[i].StdAmps > rows[i-1].StdAmps {
			t.Fatal("survey rows not sorted")
		}
	}
}

func TestSurveyValidation(t *testing.T) {
	b, err := board.NewZCU102(board.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := NewAttacker(b.Sysfs(), sysfs.Nobody)
	if _, err := Survey(nil, a, time.Second); err == nil {
		t.Fatal("nil board accepted")
	}
	if _, err := Survey(b, nil, time.Second); err == nil {
		t.Fatal("nil attacker accepted")
	}
	if _, err := Survey(b, a, 0); err == nil {
		t.Fatal("zero duration accepted")
	}
}

// deployDPUForTest wires a DPU victim onto a board, as the survey
// command does.
func deployDPUForTest(b *board.ZCU102) (*dpu.Engine, error) {
	queries, err := imagenet.New(b.Engine().Stream("queries"))
	if err != nil {
		return nil, err
	}
	engine, err := dpu.NewEngine(dpu.EngineConfig{
		Queries:        queries,
		SetCPUFullUtil: b.CPUFull().SetUtil,
		SetCPULowUtil:  b.CPULow().SetUtil,
		SetDDRUtil:     b.DDR().SetUtil,
	})
	if err != nil {
		return nil, err
	}
	if err := b.Fabric().Place(engine, b.Fabric().SpreadEvenly()); err != nil {
		return nil, err
	}
	m, err := dpu.ZooModel("ResNet-50")
	if err != nil {
		return nil, err
	}
	if err := engine.LoadModel(m); err != nil {
		return nil, err
	}
	return engine, nil
}

func TestApplicabilityAcrossCatalog(t *testing.T) {
	rows, err := Applicability(ApplicabilityConfig{Levels: 6, SamplesPerLevel: 5})
	if err != nil {
		t.Fatalf("Applicability: %v", err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want the 8 Table I boards", len(rows))
	}
	for _, r := range rows {
		if r.CurrentPearson < 0.99 {
			t.Errorf("%s: current Pearson = %v, attack should work on every board",
				r.Board, r.CurrentPearson)
		}
		if !r.VoltageInBand {
			t.Errorf("%s: stabilized voltage left its band", r.Board)
		}
		if r.Sensors < 14 {
			t.Errorf("%s: discovered %d sensors, want >= 14 (Table I)", r.Board, r.Sensors)
		}
	}
}

func TestApplicabilityValidation(t *testing.T) {
	if _, err := Applicability(ApplicabilityConfig{Levels: 1}); err == nil {
		t.Fatal("single level accepted")
	}
	if _, err := Applicability(ApplicabilityConfig{SamplesPerLevel: -1}); err == nil {
		t.Fatal("negative samples accepted")
	}
}

func TestCountGroups(t *testing.T) {
	mk := func(q1, q3 float64) KeyObservation {
		return KeyObservation{Current: stats.FiveNum{Min: q1, Q1: q1, Median: (q1 + q3) / 2, Q3: q3, Max: q3}}
	}
	obs := []KeyObservation{mk(0, 1), mk(0.5, 1.5), mk(3, 4), mk(5, 6)}
	got := countGroups(obs, func(k KeyObservation) stats.FiveNum { return k.Current })
	if got != 3 {
		t.Fatalf("groups = %d, want 3", got)
	}
	if countGroups(nil, nil) != 0 {
		t.Fatal("empty groups != 0")
	}
}
