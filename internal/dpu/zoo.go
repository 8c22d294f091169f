package dpu

import "fmt"

// zooEntry names one model of the fingerprinting suite and the
// constructor that builds it.
type zooEntry struct {
	name  string
	build func(name string) *Model
}

// zoo lists the 39 image-recognition models the fingerprinting
// experiment deploys, spanning 7 architecture families, mirroring the
// complete Vitis AI Library image-recognition suite used in the paper.
// It holds constructors, not models: Zoo and ZooModel build fresh ones
// on every call.
//
// Layer workloads are derived from each architecture's published block
// structure (channel widths, strides, block counts), so the relative
// compute/memory proportions — the quantities the side channel sees —
// track the real networks.
var zoo = []zooEntry{
	// --- VGG family (4) ---
	{"VGG-11", func(n string) *Model { return vgg(n, []int{1, 1, 2, 2, 2}) }},
	{"VGG-13", func(n string) *Model { return vgg(n, []int{2, 2, 2, 2, 2}) }},
	{"VGG-16", func(n string) *Model { return vgg(n, []int{2, 2, 3, 3, 3}) }},
	{"VGG-19", func(n string) *Model { return vgg(n, []int{2, 2, 4, 4, 4}) }},

	// --- ResNet family (7) ---
	{"ResNet-18", func(n string) *Model { return resnet(n, 224, false, [4]int{2, 2, 2, 2}, 1.0) }},
	{"ResNet-34", func(n string) *Model { return resnet(n, 224, false, [4]int{3, 4, 6, 3}, 1.0) }},
	{"ResNet-50", func(n string) *Model { return resnet(n, 224, true, [4]int{3, 4, 6, 3}, 1.0) }},
	{"ResNet-101", func(n string) *Model { return resnet(n, 224, true, [4]int{3, 4, 23, 3}, 1.0) }},
	{"ResNet-152", func(n string) *Model { return resnet(n, 224, true, [4]int{3, 8, 36, 3}, 1.0) }},
	{"ResNet-V2-50", func(n string) *Model { return resnet(n, 299, true, [4]int{3, 4, 6, 3}, 1.0) }},
	{"ResNet-V2-101", func(n string) *Model { return resnet(n, 299, true, [4]int{3, 4, 23, 3}, 1.0) }},

	// --- Inception family (6) ---
	{"Inception-V1", func(n string) *Model { return inception(n, 224, 2, []int{2, 5, 2}, 1.0) }},
	{"Inception-V2", func(n string) *Model { return inception(n, 224, 3, []int{3, 5, 2}, 1.1) }},
	{"Inception-V3", func(n string) *Model { return inception(n, 299, 3, []int{3, 5, 3}, 1.3) }},
	{"Inception-V4", func(n string) *Model { return inception(n, 299, 4, []int{4, 7, 3}, 1.4) }},
	{"Inception-ResNet-V2", func(n string) *Model { return inception(n, 299, 3, []int{5, 10, 5}, 1.2) }},
	{"Xception", xception},

	// --- MobileNet family (7) ---
	{"MobileNet-V1-0.25", func(n string) *Model { return mobilenetV1(n, 128, 0.25) }},
	{"MobileNet-V1-0.5", func(n string) *Model { return mobilenetV1(n, 160, 0.5) }},
	{"MobileNet-V1", func(n string) *Model { return mobilenetV1(n, 224, 1.0) }},
	{"MobileNet-V2-0.5", func(n string) *Model { return mobilenetV2(n, 224, 0.5) }},
	{"MobileNet-V2", func(n string) *Model { return mobilenetV2(n, 224, 1.0) }},
	{"MobileNet-V3-Small", func(n string) *Model { return mobilenetV3(n, 224, false) }},
	{"MobileNet-V3-Large", func(n string) *Model { return mobilenetV3(n, 224, true) }},

	// --- EfficientNet family (6) ---
	{"EfficientNet-Lite0", func(n string) *Model { return efficientNetLite(n, 224, 1.0, 1.0) }},
	{"EfficientNet-Lite1", func(n string) *Model { return efficientNetLite(n, 240, 1.0, 1.1) }},
	{"EfficientNet-Lite2", func(n string) *Model { return efficientNetLite(n, 260, 1.1, 1.2) }},
	{"EfficientNet-Lite3", func(n string) *Model { return efficientNetLite(n, 280, 1.2, 1.4) }},
	{"EfficientNet-Lite4", func(n string) *Model { return efficientNetLite(n, 300, 1.4, 1.8) }},
	{"EfficientNet-B0", func(n string) *Model { return efficientNetLite(n, 224, 1.0, 1.25) }},

	// --- SqueezeNet family (3) ---
	{"SqueezeNet-1.0", func(n string) *Model { return squeezenet(n, 7, 96) }},
	{"SqueezeNet-1.1", func(n string) *Model { return squeezenet(n, 3, 64) }},
	{"SqueezeNext-23", squeezenext},

	// --- DenseNet family (6) ---
	{"DenseNet-121", func(n string) *Model { return densenet(n, 224, 32, [4]int{6, 12, 24, 16}) }},
	{"DenseNet-161", func(n string) *Model { return densenet(n, 224, 48, [4]int{6, 12, 36, 24}) }},
	{"DenseNet-169", func(n string) *Model { return densenet(n, 224, 32, [4]int{6, 12, 32, 32}) }},
	{"DenseNet-201", func(n string) *Model { return densenet(n, 224, 32, [4]int{6, 12, 48, 32}) }},
	{"DenseNet-264", func(n string) *Model { return densenet(n, 224, 32, [4]int{6, 12, 64, 48}) }},
	{"DenseNet-121-160", func(n string) *Model { return densenet(n, 160, 32, [4]int{6, 12, 24, 16}) }},
}

// Zoo builds and returns all 39 models of the fingerprinting suite, in
// family order. Every call builds all 39 afresh (a few thousand layers
// with formatted names), and the caller owns the returned models; to
// deploy one model, call ZooModel instead.
func Zoo() []*Model {
	models := make([]*Model, len(zoo))
	for i, e := range zoo {
		models[i] = e.build(e.name)
	}
	return models
}

// ZooFamilies returns the distinct family names in the zoo, in first-
// appearance order.
func ZooFamilies() []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range Zoo() {
		if !seen[m.Family] {
			seen[m.Family] = true
			out = append(out, m.Family)
		}
	}
	return out
}

// ZooModel builds and returns the zoo model with the given name. It
// builds only that model, fresh on every call, and the caller owns it.
func ZooModel(name string) (*Model, error) {
	for _, e := range zoo {
		if e.name == name {
			return e.build(name), nil
		}
	}
	return nil, fmt.Errorf("dpu: no zoo model %q", name)
}

// Fig3Models returns the six models whose traces Fig. 3 plots.
func Fig3Models() []string {
	return []string{
		"MobileNet-V1", "SqueezeNet-1.1", "EfficientNet-Lite0",
		"Inception-V3", "ResNet-50", "VGG-19",
	}
}

func scale(c int, alpha float64) int {
	s := int(float64(c)*alpha + 0.5)
	if s < 8 {
		s = 8
	}
	return s
}

// vgg builds a VGG-style stack: five conv stages with max-pooling and a
// three-layer classifier.
func vgg(name string, reps []int) *Model {
	b := newBuilder(name, "VGG", 224, 224, 3)
	widths := []int{64, 128, 256, 512, 512}
	for stage, n := range reps {
		for i := 0; i < n; i++ {
			b.conv(3, 1, widths[stage])
		}
		b.pool(2, 2)
	}
	b.dense(4096)
	b.dense(4096)
	b.dense(1000)
	b.softmax(1000)
	return b.build()
}

// resnet builds a residual network with either basic (2×3×3) or
// bottleneck (1-3-1) blocks.
func resnet(name string, input int, bottleneck bool, blocks [4]int, width float64) *Model {
	b := newBuilder(name, "ResNet", input, input, 3)
	b.conv(7, 2, scale(64, width))
	b.pool(3, 2)
	stageC := []int{64, 128, 256, 512}
	for stage, n := range blocks {
		c := scale(stageC[stage], width)
		for i := 0; i < n; i++ {
			stride := 1
			if i == 0 && stage > 0 {
				stride = 2
			}
			if bottleneck {
				b.conv(1, stride, c)
				b.conv(3, 1, c)
				b.conv(1, 1, 4*c)
			} else {
				b.conv(3, stride, c)
				b.conv(3, 1, c)
			}
			b.eltwise()
		}
	}
	b.gap()
	b.dense(1000)
	b.softmax(1000)
	return b.build()
}

// inception builds an Inception-style network: a conv stem followed by
// stages of mixed blocks. Each mixed block is modeled as its dominant
// parallel branches (1×1 reduction, 3×3 tower, pooling projection)
// followed by a channel concat.
func inception(name string, input, stemDepth int, mixed []int, width float64) *Model {
	b := newBuilder(name, "Inception", input, input, 3)
	b.conv(3, 2, scale(32, width))
	for i := 1; i < stemDepth; i++ {
		b.conv(3, 1, scale(64, width))
	}
	b.pool(3, 2)
	b.conv(1, 1, scale(80, width))
	b.conv(3, 1, scale(192, width))
	b.pool(3, 2)
	stageC := []int{256, 512, 1024}
	for stage, n := range mixed {
		c := scale(stageC[stage], width)
		for i := 0; i < n; i++ {
			// branch 1: 1x1; branch 2: 1x1 -> 3x3; branch 3: pool proj.
			b.conv(1, 1, c/4)
			b.conv(1, 1, c/8)
			b.conv(3, 1, c/2)
			b.conv(1, 1, c/4)
			b.eltwise() // concat
			b.setChannels(c)
		}
		if stage < len(mixed)-1 {
			b.pool(3, 2)
		}
	}
	b.gap()
	b.dense(1000)
	b.softmax(1000)
	return b.build()
}

// xception builds the depthwise-separable Inception variant.
func xception(name string) *Model {
	b := newBuilder(name, "Inception", 299, 299, 3)
	b.conv(3, 2, 32)
	b.conv(3, 1, 64)
	for _, c := range []int{128, 256, 728} {
		b.conv(1, 2, c) // strided shortcut projection
		b.dwconv(3, 1)
		b.conv(1, 1, c)
		b.eltwise()
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 3; j++ {
			b.dwconv(3, 1)
			b.conv(1, 1, 728)
		}
		b.eltwise()
	}
	b.conv(1, 2, 1024)
	b.dwconv(3, 1)
	b.conv(1, 1, 1536)
	b.dwconv(3, 1)
	b.conv(1, 1, 2048)
	b.gap()
	b.dense(1000)
	b.softmax(1000)
	return b.build()
}

// mobilenetV1 builds the 13-block depthwise-separable stack.
func mobilenetV1(name string, input int, alpha float64) *Model {
	b := newBuilder(name, "MobileNet", input, input, 3)
	b.conv(3, 2, scale(32, alpha))
	type blk struct{ stride, outC int }
	blocks := []blk{
		{1, 64}, {2, 128}, {1, 128}, {2, 256}, {1, 256},
		{2, 512}, {1, 512}, {1, 512}, {1, 512}, {1, 512}, {1, 512},
		{2, 1024}, {1, 1024},
	}
	for _, bk := range blocks {
		b.dwconv(3, bk.stride)
		b.conv(1, 1, scale(bk.outC, alpha))
	}
	b.gap()
	b.dense(1000)
	b.softmax(1000)
	return b.build()
}

// mobilenetV2 builds the inverted-residual stack (expansion factor 6).
func mobilenetV2(name string, input int, alpha float64) *Model {
	b := newBuilder(name, "MobileNet", input, input, 3)
	b.conv(3, 2, scale(32, alpha))
	type blk struct{ t, c, n, s int }
	cfg := []blk{
		{1, 16, 1, 1}, {6, 24, 2, 2}, {6, 32, 3, 2}, {6, 64, 4, 2},
		{6, 96, 3, 1}, {6, 160, 3, 2}, {6, 320, 1, 1},
	}
	for _, bk := range cfg {
		c := scale(bk.c, alpha)
		for i := 0; i < bk.n; i++ {
			stride := 1
			if i == 0 {
				stride = bk.s
			}
			b.conv(1, 1, c*bk.t) // expand
			b.dwconv(3, stride)
			b.conv(1, 1, c) // project
			if stride == 1 {
				b.eltwise()
			}
		}
	}
	b.conv(1, 1, scale(1280, alpha))
	b.gap()
	b.dense(1000)
	b.softmax(1000)
	return b.build()
}

// mobilenetV3 builds the V3 small/large variants (V2-style blocks with
// the published channel schedule).
func mobilenetV3(name string, input int, large bool) *Model {
	b := newBuilder(name, "MobileNet", input, input, 3)
	b.conv(3, 2, 16)
	type blk struct{ exp, c, k, s int }
	var cfg []blk
	if large {
		cfg = []blk{
			{16, 16, 3, 1}, {64, 24, 3, 2}, {72, 24, 3, 1},
			{72, 40, 5, 2}, {120, 40, 5, 1}, {120, 40, 5, 1},
			{240, 80, 3, 2}, {200, 80, 3, 1}, {184, 80, 3, 1}, {184, 80, 3, 1},
			{480, 112, 3, 1}, {672, 112, 3, 1},
			{672, 160, 5, 2}, {960, 160, 5, 1}, {960, 160, 5, 1},
		}
	} else {
		cfg = []blk{
			{16, 16, 3, 2}, {72, 24, 3, 2}, {88, 24, 3, 1},
			{96, 40, 5, 2}, {240, 40, 5, 1}, {240, 40, 5, 1},
			{120, 48, 5, 1}, {144, 48, 5, 1},
			{288, 96, 5, 2}, {576, 96, 5, 1}, {576, 96, 5, 1},
		}
	}
	for _, bk := range cfg {
		b.conv(1, 1, bk.exp)
		b.dwconv(bk.k, bk.s)
		b.conv(1, 1, bk.c)
		if bk.s == 1 {
			b.eltwise()
		}
	}
	head := 576
	if large {
		head = 960
	}
	b.conv(1, 1, head)
	b.gap()
	b.dense(1280)
	b.dense(1000)
	b.softmax(1000)
	return b.build()
}

// efficientNetLite builds the EfficientNet-Lite compound-scaled stack.
func efficientNetLite(name string, input int, widthMul, depthMul float64) *Model {
	b := newBuilder(name, "EfficientNet", input, input, 3)
	b.conv(3, 2, scale(32, widthMul))
	type blk struct{ t, c, n, s, k int }
	cfg := []blk{
		{1, 16, 1, 1, 3}, {6, 24, 2, 2, 3}, {6, 40, 2, 2, 5},
		{6, 80, 3, 2, 3}, {6, 112, 3, 1, 5}, {6, 192, 4, 2, 5}, {6, 320, 1, 1, 3},
	}
	for _, bk := range cfg {
		c := scale(bk.c, widthMul)
		n := int(float64(bk.n)*depthMul + 0.5)
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			stride := 1
			if i == 0 {
				stride = bk.s
			}
			b.conv(1, 1, c*bk.t)
			b.dwconv(bk.k, stride)
			b.conv(1, 1, c)
			if stride == 1 {
				b.eltwise()
			}
		}
	}
	b.conv(1, 1, scale(1280, widthMul))
	b.gap()
	b.dense(1000)
	b.softmax(1000)
	return b.build()
}

// squeezenet builds the fire-module stack; headK/headC distinguish the
// 1.0 (7×7 stem) and 1.1 (3×3 stem) variants.
func squeezenet(name string, headK, headC int) *Model {
	b := newBuilder(name, "SqueezeNet", 224, 224, 3)
	b.conv(headK, 2, headC)
	b.pool(3, 2)
	fire := func(squeeze, expand int) {
		b.conv(1, 1, squeeze)
		b.conv(1, 1, expand)   // expand 1x1 branch (reads squeeze output)
		b.setChannels(squeeze) // rewind: 3x3 branch also reads squeeze output
		b.conv(3, 1, expand)   // expand 3x3 branch
		b.eltwise()            // concat
		b.setChannels(2 * expand)
	}
	fire(16, 64)
	fire(16, 64)
	b.pool(3, 2)
	fire(32, 128)
	fire(32, 128)
	b.pool(3, 2)
	fire(48, 192)
	fire(48, 192)
	fire(64, 256)
	fire(64, 256)
	b.conv(1, 1, 1000)
	b.gap()
	b.softmax(1000)
	return b.build()
}

// squeezenext builds the SqueezeNext-23 variant with split 1×3/3×1
// convolutions.
func squeezenext(name string) *Model {
	b := newBuilder(name, "SqueezeNet", 224, 224, 3)
	b.conv(7, 2, 64)
	b.pool(3, 2)
	stage := func(c, n, stride int) {
		for i := 0; i < n; i++ {
			s := 1
			if i == 0 {
				s = stride
			}
			b.conv(1, s, c/2)
			b.conv(1, 1, c/4)
			b.conv(3, 1, c/2) // stands in for the 1x3+3x1 pair
			b.conv(1, 1, c)
			b.eltwise()
		}
	}
	stage(32, 6, 1)
	stage(64, 6, 2)
	stage(128, 8, 2)
	stage(256, 1, 2)
	b.conv(1, 1, 128)
	b.gap()
	b.dense(1000)
	b.softmax(1000)
	return b.build()
}

// densenet builds a densely connected network with the given growth rate
// and per-block layer counts.
func densenet(name string, input, growth int, blocks [4]int) *Model {
	b := newBuilder(name, "DenseNet", input, input, 3)
	c := 2 * growth
	b.conv(7, 2, c)
	b.pool(3, 2)
	for stage, n := range blocks {
		for i := 0; i < n; i++ {
			b.conv(1, 1, 4*growth)
			b.conv(3, 1, growth)
			b.eltwise() // concat onto the running feature map
			c += growth
			b.setChannels(c)
		}
		if stage < len(blocks)-1 {
			c = c / 2
			b.conv(1, 1, c) // transition
			b.pool(2, 2)
		}
	}
	b.gap()
	b.dense(1000)
	b.softmax(1000)
	return b.build()
}
