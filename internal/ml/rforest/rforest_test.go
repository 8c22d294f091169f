package rforest

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(21)) }

// gaussianBlobs builds an n-class dataset of well-separated clusters.
func gaussianBlobs(r *rand.Rand, classes, perClass, dims int, sep float64) ([][]float64, []int) {
	var X [][]float64
	var Y []int
	for c := 0; c < classes; c++ {
		for i := 0; i < perClass; i++ {
			x := make([]float64, dims)
			for d := range x {
				x[d] = float64(c)*sep + r.NormFloat64()
			}
			X = append(X, x)
			Y = append(Y, c)
		}
	}
	return X, Y
}

func TestTrainValidation(t *testing.T) {
	X := [][]float64{{1, 2}, {3, 4}}
	Y := []int{0, 1}
	cases := []struct {
		name string
		cfg  Config
		x    [][]float64
		y    []int
		cls  int
	}{
		{"nil rng", Config{}, X, Y, 2},
		{"no samples", Config{Rand: rng()}, nil, nil, 2},
		{"len mismatch", Config{Rand: rng()}, X, []int{0}, 2},
		{"one class", Config{Rand: rng()}, X, Y, 1},
		{"bad label", Config{Rand: rng()}, X, []int{0, 5}, 2},
		{"ragged", Config{Rand: rng()}, [][]float64{{1}, {1, 2}}, Y, 2},
		{"zero width", Config{Rand: rng()}, [][]float64{{}, {}}, Y, 2},
		{"too many feats/split", Config{Rand: rng(), FeaturesPerSplit: 10}, X, Y, 2},
		{"negative trees", Config{Rand: rng(), Trees: -1}, X, Y, 2},
		{"NaN feature", Config{Rand: rng()}, [][]float64{{1, 2}, {3, math.NaN()}}, Y, 2},
		{"+Inf feature", Config{Rand: rng()}, [][]float64{{math.Inf(1), 2}, {3, 4}}, Y, 2},
		{"-Inf feature", Config{Rand: rng()}, [][]float64{{1, 2}, {math.Inf(-1), 4}}, Y, 2},
	}
	for _, c := range cases {
		if _, err := Train(c.cfg, c.x, c.y, c.cls); err == nil {
			t.Errorf("%s: invalid input accepted", c.name)
		}
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	r := rng()
	X, Y := gaussianBlobs(r, 2, 20, 3, 10)
	f, err := Train(Config{Rand: r}, X, Y, 2)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if f.Trees() != 100 {
		t.Fatalf("Trees = %d, want 100 (paper config)", f.Trees())
	}
	if f.Features() != 3 || f.Classes() != 2 {
		t.Fatalf("shape = %d feat %d cls", f.Features(), f.Classes())
	}
}

func TestSeparableBlobsPerfect(t *testing.T) {
	r := rng()
	X, Y := gaussianBlobs(r, 4, 30, 5, 12)
	f, err := Train(Config{Trees: 30, Rand: r}, X, Y, 4)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	correct := 0
	for i := range X {
		p, err := f.Predict(X[i])
		if err != nil {
			t.Fatalf("Predict: %v", err)
		}
		if p == Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.99 {
		t.Fatalf("training accuracy = %v on separable blobs", acc)
	}
}

func TestGeneralizesToHeldOut(t *testing.T) {
	r := rng()
	Xtr, Ytr := gaussianBlobs(r, 3, 50, 4, 8)
	f, err := Train(Config{Trees: 50, Rand: r}, Xtr, Ytr, 3)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	Xte, Yte := gaussianBlobs(r, 3, 30, 4, 8)
	correct := 0
	for i := range Xte {
		if p, _ := f.Predict(Xte[i]); p == Yte[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(Xte)); acc < 0.95 {
		t.Fatalf("held-out accuracy = %v", acc)
	}
}

func TestProbaSumsToOne(t *testing.T) {
	r := rng()
	X, Y := gaussianBlobs(r, 3, 20, 4, 6)
	f, err := Train(Config{Trees: 20, Rand: r}, X, Y, 3)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	p, err := f.Proba(X[0])
	if err != nil {
		t.Fatalf("Proba: %v", err)
	}
	sum := 0.0
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Fatalf("probability %v out of range", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("proba sum = %v", sum)
	}
	if _, err := f.Proba([]float64{1}); err == nil {
		t.Fatal("wrong-width sample accepted")
	}
}

func TestTopK(t *testing.T) {
	r := rng()
	X, Y := gaussianBlobs(r, 5, 20, 4, 10)
	f, err := Train(Config{Trees: 20, Rand: r}, X, Y, 5)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	top, err := f.TopK(X[0], 3)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if len(top) != 3 {
		t.Fatalf("TopK len = %d", len(top))
	}
	seen := map[int]bool{}
	for _, c := range top {
		if seen[c] {
			t.Fatal("duplicate class in TopK")
		}
		seen[c] = true
	}
	proba, _ := f.Proba(X[0])
	if proba[top[0]] < proba[top[1]] || proba[top[1]] < proba[top[2]] {
		t.Fatal("TopK not in descending probability order")
	}
	if _, err := f.TopK(X[0], 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := f.TopK(X[0], 6); err == nil {
		t.Fatal("k>classes accepted")
	}
}

func TestMaxDepthOneIsAStump(t *testing.T) {
	r := rng()
	X, Y := gaussianBlobs(r, 2, 40, 1, 10)
	f, err := Train(Config{Trees: 10, MaxDepth: 1, Rand: r}, X, Y, 2)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	// A depth-1 stump still separates 1-D blobs.
	correct := 0
	for i := range X {
		if p, _ := f.Predict(X[i]); p == Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.95 {
		t.Fatalf("stump accuracy = %v", acc)
	}
}

func TestConstantFeaturesYieldPrior(t *testing.T) {
	// All samples identical: no split is possible; prediction must fall
	// back to the class prior without crashing.
	X := make([][]float64, 30)
	Y := make([]int, 30)
	for i := range X {
		X[i] = []float64{1, 1, 1}
		Y[i] = i % 3
	}
	f, err := Train(Config{Trees: 10, Rand: rng()}, X, Y, 3)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	p, err := f.Proba([]float64{1, 1, 1})
	if err != nil {
		t.Fatalf("Proba: %v", err)
	}
	for c, v := range p {
		if math.Abs(v-1.0/3.0) > 0.15 {
			t.Fatalf("class %d proba = %v, want ~1/3", c, v)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	build := func() []int {
		r := rand.New(rand.NewSource(9))
		X, Y := gaussianBlobs(r, 3, 20, 4, 3)
		f, err := Train(Config{Trees: 15, Rand: r}, X, Y, 3)
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		out := make([]int, len(X))
		for i := range X {
			out[i], _ = f.Predict(X[i])
		}
		return out
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different forests")
		}
	}
}

func TestImportancesFindInformativeFeature(t *testing.T) {
	r := rng()
	// Feature 1 carries the class; features 0 and 2 are noise.
	var X [][]float64
	var Y []int
	for c := 0; c < 2; c++ {
		for i := 0; i < 60; i++ {
			X = append(X, []float64{
				r.NormFloat64(),
				float64(c)*8 + r.NormFloat64(),
				r.NormFloat64(),
			})
			Y = append(Y, c)
		}
	}
	f, err := Train(Config{Trees: 20, Rand: r}, X, Y, 2)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	imp := f.Importances()
	if len(imp) != 3 {
		t.Fatalf("importances = %v", imp)
	}
	sum := imp[0] + imp[1] + imp[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances sum = %v", sum)
	}
	if imp[1] < 0.8 {
		t.Fatalf("informative feature importance = %v, want dominant (all: %v)", imp[1], imp)
	}
	// Returned slice is a copy.
	imp[0] = 99
	if f.Importances()[0] == 99 {
		t.Fatal("Importances exposes internal state")
	}
}

func TestImportancesZeroOnConstantData(t *testing.T) {
	X := make([][]float64, 20)
	Y := make([]int, 20)
	for i := range X {
		X[i] = []float64{1, 1}
		Y[i] = i % 2
	}
	f, err := Train(Config{Trees: 5, Rand: rng()}, X, Y, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range f.Importances() {
		if v != 0 {
			t.Fatalf("importance on unsplittable data: %v", f.Importances())
		}
	}
}

func TestGini(t *testing.T) {
	if g := gini([]float64{10, 0}, 10); g != 0 {
		t.Fatalf("pure gini = %v", g)
	}
	if g := gini([]float64{5, 5}, 10); math.Abs(g-0.5) > 1e-12 {
		t.Fatalf("even gini = %v, want 0.5", g)
	}
	if g := gini(nil, 0); g != 0 {
		t.Fatalf("empty gini = %v", g)
	}
}

// Property: predictions are always valid class indices and Proba is a
// distribution.
func TestPredictionValidityProperty(t *testing.T) {
	r := rng()
	X, Y := gaussianBlobs(r, 3, 15, 3, 5)
	f, err := Train(Config{Trees: 10, Rand: r}, X, Y, 3)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(a, b, c float64) bool {
		x := []float64{math.Mod(a, 100), math.Mod(b, 100), math.Mod(c, 100)}
		p, err := f.Predict(x)
		if err != nil || p < 0 || p >= 3 {
			return false
		}
		proba, err := f.Proba(x)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, v := range proba {
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
