package dpu

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/imagenet"
)

func TestZooHas39ModelsIn7Families(t *testing.T) {
	zoo := Zoo()
	if len(zoo) != 39 {
		t.Fatalf("zoo size = %d, want 39", len(zoo))
	}
	fams := ZooFamilies()
	if len(fams) != 7 {
		t.Fatalf("families = %v (%d), want 7", fams, len(fams))
	}
	names := map[string]bool{}
	for _, m := range zoo {
		if names[m.Name] {
			t.Errorf("duplicate model name %q", m.Name)
		}
		names[m.Name] = true
		if err := m.Validate(); err != nil {
			t.Errorf("model %s invalid: %v", m.Name, err)
		}
	}
}

func TestZooWorkloadsAreRealistic(t *testing.T) {
	// Published ballparks (MACs per inference): the zoo should land in
	// the right order of magnitude and preserve the famous orderings.
	get := func(name string) *Model {
		t.Helper()
		m, err := ZooModel(name)
		if err != nil {
			t.Fatalf("ZooModel(%s): %v", name, err)
		}
		return m
	}
	vgg19 := get("VGG-19")
	resnet50 := get("ResNet-50")
	mobilenet := get("MobileNet-V1")
	squeeze := get("SqueezeNet-1.1")

	// VGG-19 ~19.6 GMACs; accept 10-30 G.
	if g := float64(vgg19.TotalMACs()) / 1e9; g < 10 || g > 30 {
		t.Errorf("VGG-19 MACs = %.1f G, want 10-30 G", g)
	}
	// ResNet-50 ~4.1 GMACs; accept 2-8 G.
	if g := float64(resnet50.TotalMACs()) / 1e9; g < 2 || g > 8 {
		t.Errorf("ResNet-50 MACs = %.1f G, want 2-8 G", g)
	}
	// MobileNet-V1 ~0.57 GMACs; accept 0.3-1.2 G.
	if g := float64(mobilenet.TotalMACs()) / 1e9; g < 0.3 || g > 1.2 {
		t.Errorf("MobileNet-V1 MACs = %.2f G, want 0.3-1.2 G", g)
	}
	// Orderings.
	if vgg19.TotalMACs() <= resnet50.TotalMACs() {
		t.Error("VGG-19 should out-compute ResNet-50")
	}
	if resnet50.TotalMACs() <= mobilenet.TotalMACs() {
		t.Error("ResNet-50 should out-compute MobileNet-V1")
	}
	// VGG-19 ~144 M params, SqueezeNet ~1.2 M: a >50x parameter gap.
	if vgg19.ParamBytes() < 50*squeeze.ParamBytes() {
		t.Errorf("VGG-19/SqueezeNet param ratio = %.1f, want > 50",
			float64(vgg19.ParamBytes())/float64(squeeze.ParamBytes()))
	}
}

func TestZooModelLookupError(t *testing.T) {
	for _, name := range []string{"NoSuchNet", "", "resnet-50", "ResNet-50 ", "VGG"} {
		if m, err := ZooModel(name); err == nil || m != nil {
			t.Errorf("ZooModel(%q) = %v, %v; want an error", name, m, err)
		}
	}
}

func TestFig3ModelsExist(t *testing.T) {
	names := Fig3Models()
	if len(names) != 6 {
		t.Fatalf("Fig3Models = %d, want 6", len(names))
	}
	for _, n := range names {
		if _, err := ZooModel(n); err != nil {
			t.Errorf("Fig. 3 model %s missing from zoo: %v", n, err)
		}
	}
}

func TestModelValidate(t *testing.T) {
	bad := []Model{
		{},
		{Name: "x", Family: "f"}, // no input
		{Name: "x", Family: "f", InputH: 224, InputW: 224}, // no layers
		{Name: "x", Family: "f", InputH: 224, InputW: 224, // negative MACs
			Layers: []Layer{{Name: "l", Type: Conv, MACs: -1}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("case %d: invalid model accepted", i)
		}
	}
}

// testHooks collects the engine's board demands.
type testHooks struct {
	cpuFull, cpuLow, ddr float64
}

func (h *testHooks) config(q QuerySource) EngineConfig {
	return EngineConfig{
		Queries:        q,
		SetCPUFullUtil: func(v float64) { h.cpuFull = v },
		SetCPULowUtil:  func(v float64) { h.cpuLow = v },
		SetDDRUtil:     func(v float64) { h.ddr = v },
	}
}

func TestNewEngineValidation(t *testing.T) {
	h := &testHooks{}
	good := h.config(imagenet.Fixed{Width: 500, Height: 375})
	cases := []func(EngineConfig) EngineConfig{
		func(c EngineConfig) EngineConfig { c.Queries = nil; return c },
		func(c EngineConfig) EngineConfig { c.SetCPUFullUtil = nil; return c },
		func(c EngineConfig) EngineConfig { c.SetCPULowUtil = nil; return c },
		func(c EngineConfig) EngineConfig { c.SetDDRUtil = nil; return c },
	}
	for i, mutate := range cases {
		if _, err := NewEngine(mutate(good)); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := NewEngine(good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

func TestEngineIdleWithoutModel(t *testing.T) {
	h := &testHooks{}
	e, err := NewEngine(h.config(imagenet.Fixed{Width: 500, Height: 375}))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	e.Step(0, time.Millisecond)
	if e.ActiveElements() != 800 { // default idle
		t.Fatalf("idle activity = %v, want 800", e.ActiveElements())
	}
	if h.cpuFull != 0 || h.ddr != 0 {
		t.Fatal("idle engine pushed non-zero demand")
	}
	if e.Model() != nil {
		t.Fatal("Model() non-nil before load")
	}
}

func TestLoadModelValidation(t *testing.T) {
	h := &testHooks{}
	e, _ := NewEngine(h.config(imagenet.Fixed{Width: 500, Height: 375}))
	if err := e.LoadModel(nil); err == nil {
		t.Fatal("nil model accepted")
	}
	if err := e.LoadModel(&Model{}); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestEngineRunsInference(t *testing.T) {
	h := &testHooks{}
	e, _ := NewEngine(h.config(imagenet.Fixed{Width: 500, Height: 375}))
	m, err := ZooModel("MobileNet-V1")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadModel(m); err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	// MobileNet is fast (few ms per query); 500 ms should complete many.
	for now := time.Duration(0); now < 500*time.Millisecond; now += time.Millisecond {
		e.Step(now, time.Millisecond)
	}
	if e.Inferences() < 10 {
		t.Fatalf("Inferences = %d, want >= 10", e.Inferences())
	}
}

func TestEngineActivityAboveIdleWhileRunning(t *testing.T) {
	h := &testHooks{}
	e, _ := NewEngine(h.config(imagenet.Fixed{Width: 500, Height: 375}))
	m, _ := ZooModel("VGG-19")
	if err := e.LoadModel(m); err != nil {
		t.Fatal(err)
	}
	var sum float64
	n := 0
	for now := time.Duration(0); now < 300*time.Millisecond; now += time.Millisecond {
		e.Step(now, time.Millisecond)
		sum += e.ActiveElements()
		n++
	}
	mean := sum / float64(n)
	if mean < 5000 {
		t.Fatalf("mean VGG-19 activity = %v, want well above idle", mean)
	}
}

func TestEngineStop(t *testing.T) {
	h := &testHooks{}
	e, _ := NewEngine(h.config(imagenet.Fixed{Width: 500, Height: 375}))
	m, _ := ZooModel("SqueezeNet-1.1")
	if err := e.LoadModel(m); err != nil {
		t.Fatal(err)
	}
	e.Step(0, time.Millisecond)
	e.Stop()
	e.Step(0, time.Millisecond)
	if e.ActiveElements() != 800 {
		t.Fatalf("stopped activity = %v, want idle", e.ActiveElements())
	}
}

func TestQueryPeriodOrdering(t *testing.T) {
	h := &testHooks{}
	e, _ := NewEngine(h.config(imagenet.Fixed{Width: 500, Height: 375}))
	if _, err := e.QueryPeriod(); err == nil {
		t.Fatal("QueryPeriod without model accepted")
	}
	period := func(name string) time.Duration {
		t.Helper()
		m, err := ZooModel(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.LoadModel(m); err != nil {
			t.Fatal(err)
		}
		p, err := e.QueryPeriod()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	small := period("MobileNet-V1")
	big := period("VGG-19")
	if big <= small {
		t.Fatalf("periods: VGG-19 %v <= MobileNet %v", big, small)
	}
	if big < 10*time.Millisecond {
		t.Fatalf("VGG-19 period = %v, implausibly fast", big)
	}
	if small > 50*time.Millisecond {
		t.Fatalf("MobileNet period = %v, implausibly slow", small)
	}
}

func TestEnginePushesDemandsDuringPreprocess(t *testing.T) {
	h := &testHooks{}
	// Enormous source image: preprocessing dominates the first ticks.
	e, _ := NewEngine(h.config(imagenet.Fixed{Width: 1600, Height: 1600}))
	m, _ := ZooModel("ResNet-50")
	if err := e.LoadModel(m); err != nil {
		t.Fatal(err)
	}
	e.Step(0, time.Millisecond)
	if h.cpuFull < 0.5 {
		t.Fatalf("preprocess CPU util = %v, want high", h.cpuFull)
	}
	if e.ActiveElements() > 2000 {
		t.Fatalf("PL busy during CPU preprocess: %v elements", e.ActiveElements())
	}
}

// Property: every zoo model completes queries and keeps utilizations in
// [0,1].
func TestEngineUtilizationBoundsProperty(t *testing.T) {
	zoo := Zoo()
	f := func(pick uint8) bool {
		m := zoo[int(pick)%len(zoo)]
		h := &testHooks{}
		e, err := NewEngine(h.config(imagenet.Fixed{Width: 500, Height: 375}))
		if err != nil {
			return false
		}
		if err := e.LoadModel(m); err != nil {
			return false
		}
		for now := time.Duration(0); now < 50*time.Millisecond; now += time.Millisecond {
			e.Step(now, time.Millisecond)
			if h.cpuFull < 0 || h.cpuFull > 1 || h.cpuLow < 0 || h.cpuLow > 1 ||
				h.ddr < 0 || h.ddr > 1.0001 {
				return false
			}
			if e.ActiveElements() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 39}); err != nil {
		t.Fatal(err)
	}
}
