package dpu

import (
	"reflect"
	"testing"
)

// zooOrder is the published order of Zoo: family by family, as the
// Table III rows and every capture seed list them.
var zooOrder = []string{
	"VGG-11", "VGG-13", "VGG-16", "VGG-19",
	"ResNet-18", "ResNet-34", "ResNet-50", "ResNet-101", "ResNet-152",
	"ResNet-V2-50", "ResNet-V2-101",
	"Inception-V1", "Inception-V2", "Inception-V3", "Inception-V4",
	"Inception-ResNet-V2", "Xception",
	"MobileNet-V1-0.25", "MobileNet-V1-0.5", "MobileNet-V1",
	"MobileNet-V2-0.5", "MobileNet-V2", "MobileNet-V3-Small", "MobileNet-V3-Large",
	"EfficientNet-Lite0", "EfficientNet-Lite1", "EfficientNet-Lite2",
	"EfficientNet-Lite3", "EfficientNet-Lite4", "EfficientNet-B0",
	"SqueezeNet-1.0", "SqueezeNet-1.1", "SqueezeNext-23",
	"DenseNet-121", "DenseNet-161", "DenseNet-169", "DenseNet-201",
	"DenseNet-264", "DenseNet-121-160",
}

// TestZooModelMatchesZoo pins the lookup to the full build: ZooModel(n)
// is deeply equal to Zoo's entry named n, and Zoo keeps its order.
func TestZooModelMatchesZoo(t *testing.T) {
	all := Zoo()
	if len(all) != len(zooOrder) {
		t.Fatalf("zoo size = %d, want %d", len(all), len(zooOrder))
	}
	for i, want := range all {
		if want.Name != zooOrder[i] {
			t.Errorf("Zoo()[%d] = %s, want %s", i, want.Name, zooOrder[i])
		}
		got, err := ZooModel(want.Name)
		if err != nil {
			t.Fatalf("ZooModel(%q): %v", want.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ZooModel(%q) differs from Zoo()[%d]", want.Name, i)
		}
	}
}

// TestZooModelReturnsFreshModels pins ownership: each call builds a
// model of its own, so a caller that edits its copy affects no other.
func TestZooModelReturnsFreshModels(t *testing.T) {
	a, err := ZooModel("ResNet-50")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ZooModel("ResNet-50")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two calls returned the same *Model")
	}
	orig := b.Layers[0]
	a.Layers[0].MACs = -1
	a.Layers[0].Name = "edited"
	a.Layers = a.Layers[:1]
	if b.Layers[0] != orig || len(b.Layers) == 1 {
		t.Fatal("editing one ZooModel result changed another")
	}
	if c := Zoo()[6]; c.Name != "ResNet-50" || !reflect.DeepEqual(c, b) {
		t.Fatal("editing a ZooModel result changed Zoo()")
	}
}

// TestZooModelAllocsGuard pins the cost contract: ZooModel builds
// only the named model, so even the largest costs well under a fifth of
// Zoo's allocations.
func TestZooModelAllocsGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	one := testing.AllocsPerRun(20, func() { ZooModel("DenseNet-264") })
	all := testing.AllocsPerRun(20, func() { Zoo() })
	if one >= all/5 {
		t.Fatalf("ZooModel(DenseNet-264) allocates %v objects, Zoo %v: want < a fifth", one, all)
	}
	t.Logf("ZooModel(DenseNet-264) %v allocs/op, Zoo %v", one, all)
}
