package dpu

import (
	"strings"
	"testing"
	"time"
)

func TestProfileValidation(t *testing.T) {
	if _, err := ProfileModel(nil); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := ProfileModel(&Model{}); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestProfileVGGIsComputeBoundOnConvsMemoryBoundOnFC(t *testing.T) {
	m, _ := ZooModel("VGG-19")
	p, err := ProfileModel(m)
	if err != nil {
		t.Fatalf("ProfileModel: %v", err)
	}
	if p.Model != "VGG-19" {
		t.Fatalf("Model = %s", p.Model)
	}
	var sawComputeConv, sawMemoryDense, sawCPU bool
	for _, l := range p.Layers {
		switch {
		case l.Type == Conv && l.Bound == ComputeBound:
			sawComputeConv = true
		case l.Type == Dense && l.Bound == MemoryBound:
			sawMemoryDense = true
		case l.Bound == CPUBound:
			sawCPU = true
		}
	}
	if !sawComputeConv {
		t.Error("no compute-bound conv in VGG-19")
	}
	if !sawMemoryDense {
		t.Error("VGG-19's giant fc layers should be memory-bound")
	}
	if !sawCPU {
		t.Error("softmax should be CPU-bound")
	}
	if p.Total < 20*time.Millisecond || p.Total > 200*time.Millisecond {
		t.Fatalf("VGG-19 inference = %v, want tens of ms", p.Total)
	}
	// Accounting: compute + memory + softmax = total.
	if p.ComputeTime+p.MemoryTime > p.Total {
		t.Fatal("bound times exceed total")
	}
}

func TestProfileMobileNetDWConvsAreSlowerThanEfficiencySuggests(t *testing.T) {
	m, _ := ZooModel("MobileNet-V1")
	p, err := ProfileModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if p.Total > 20*time.Millisecond {
		t.Fatalf("MobileNet inference = %v, implausibly slow", p.Total)
	}
}

func TestProfileTopLayers(t *testing.T) {
	m, _ := ZooModel("ResNet-50")
	p, err := ProfileModel(m)
	if err != nil {
		t.Fatal(err)
	}
	top := p.TopLayers(5)
	if len(top) != 5 {
		t.Fatalf("TopLayers = %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Duration > top[i-1].Duration {
			t.Fatal("TopLayers not sorted")
		}
	}
	// Asking for more than exist returns all.
	if got := p.TopLayers(10000); len(got) != len(p.Layers) {
		t.Fatalf("TopLayers overflow = %d", len(got))
	}
}

func TestProfileRender(t *testing.T) {
	m, _ := ZooModel("SqueezeNet-1.1")
	p, err := ProfileModel(m)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := p.Render(&sb, 3); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "SqueezeNet-1.1") || !strings.Contains(out, "per inference") {
		t.Fatalf("render output:\n%s", out)
	}
	if strings.Count(out, "\n") != 4 { // header + 3 layers
		t.Fatalf("render lines:\n%s", out)
	}
}

func TestProfileTotalsMatchQueryPeriodOrdering(t *testing.T) {
	// Profiles must preserve the ordering the engine's QueryPeriod sees.
	prof := func(name string) time.Duration {
		m, _ := ZooModel(name)
		p, err := ProfileModel(m)
		if err != nil {
			t.Fatal(err)
		}
		return p.Total
	}
	if prof("VGG-19") <= prof("ResNet-50") {
		t.Fatal("VGG-19 should profile slower than ResNet-50")
	}
	if prof("ResNet-50") <= prof("MobileNet-V1") {
		t.Fatal("ResNet-50 should profile slower than MobileNet-V1")
	}
}
