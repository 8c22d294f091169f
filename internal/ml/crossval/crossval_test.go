package crossval

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ml/features"
	"repro/internal/ml/rforest"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(13)) }

func TestFolds(t *testing.T) {
	folds, err := Folds(25, 10, rng())
	if err != nil {
		t.Fatalf("Folds: %v", err)
	}
	if len(folds) != 10 {
		t.Fatalf("folds = %d", len(folds))
	}
	seen := map[int]bool{}
	total := 0
	for _, f := range folds {
		for _, i := range f {
			if seen[i] {
				t.Fatalf("index %d in two folds", i)
			}
			seen[i] = true
			total++
		}
	}
	if total != 25 {
		t.Fatalf("total = %d", total)
	}
	// Near-equal sizes: 25/10 -> sizes 2 or 3.
	for _, f := range folds {
		if len(f) < 2 || len(f) > 3 {
			t.Fatalf("fold size %d", len(f))
		}
	}
}

func TestFoldsErrors(t *testing.T) {
	if _, err := Folds(5, 1, rng()); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := Folds(5, 6, rng()); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := Folds(5, 2, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

// blobDataset builds separable clusters with class names.
func blobDataset(r *rand.Rand, classes, perClass int, sep float64) *features.Dataset {
	var ds features.Dataset
	for c := 0; c < classes; c++ {
		for i := 0; i < perClass; i++ {
			x := make([]float64, 4)
			for d := range x {
				x[d] = float64(c)*sep + r.NormFloat64()
			}
			ds.Add(x, string(rune('A'+c)))
		}
	}
	return &ds
}

func TestEvaluateSeparable(t *testing.T) {
	r := rng()
	ds := blobDataset(r, 4, 25, 10)
	res, err := Evaluate(ds, rforest.Config{Trees: 30, Rand: r}, 10, r)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if res.Folds != 10 {
		t.Fatalf("Folds = %d", res.Folds)
	}
	if res.Top1 < 0.95 {
		t.Fatalf("Top1 = %v on separable data", res.Top1)
	}
	if res.Top5 < res.Top1 {
		t.Fatalf("Top5 (%v) < Top1 (%v)", res.Top5, res.Top1)
	}
}

func TestEvaluateChanceOnNoise(t *testing.T) {
	// Labels independent of features: accuracy should be near chance
	// (1/classes), far from 1.
	r := rng()
	var ds features.Dataset
	for i := 0; i < 200; i++ {
		x := []float64{r.NormFloat64(), r.NormFloat64()}
		ds.Add(x, string(rune('A'+i%4)))
	}
	res, err := Evaluate(&ds, rforest.Config{Trees: 20, Rand: r}, 5, r)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if res.Top1 > 0.5 {
		t.Fatalf("Top1 = %v on pure noise, want near 0.25", res.Top1)
	}
}

func TestEvaluateTop5CappedByClassCount(t *testing.T) {
	// With 2 classes, "top-5" means top-2 and must still be <= 1.
	r := rng()
	ds := blobDataset(r, 2, 20, 8)
	res, err := Evaluate(ds, rforest.Config{Trees: 10, Rand: r}, 4, r)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if res.Top5 != 1 {
		t.Fatalf("Top5 = %v; top-2 of 2 classes is always a hit", res.Top5)
	}
}

func TestEvaluateDetailedConfusion(t *testing.T) {
	r := rng()
	ds := blobDataset(r, 3, 20, 10)
	det, err := EvaluateDetailed(ds, rforest.Config{Trees: 20, Rand: r}, 5, r)
	if err != nil {
		t.Fatalf("EvaluateDetailed: %v", err)
	}
	if len(det.Confusion) != 3 || len(det.Confusion[0]) != 3 {
		t.Fatalf("confusion shape = %dx%d", len(det.Confusion), len(det.Confusion[0]))
	}
	// Every held-out sample appears exactly once.
	total := 0
	for _, row := range det.Confusion {
		for _, c := range row {
			total += c
		}
	}
	if total != ds.Len() {
		t.Fatalf("confusion total = %d, want %d", total, ds.Len())
	}
	// Separable blobs: the diagonal dominates.
	per := det.PerClassAccuracy()
	for c, acc := range per {
		if acc < 0.9 {
			t.Fatalf("class %d accuracy = %v", c, acc)
		}
	}
	// Detailed.Top1 must equal diagonal/total.
	diag := 0
	for i := range det.Confusion {
		diag += det.Confusion[i][i]
	}
	if got := float64(diag) / float64(total); got != det.Top1 {
		t.Fatalf("Top1 %v != diagonal rate %v", det.Top1, got)
	}
}

func TestEvaluateErrors(t *testing.T) {
	r := rng()
	var empty features.Dataset
	if _, err := Evaluate(&empty, rforest.Config{Rand: r}, 10, r); err == nil {
		t.Fatal("empty dataset accepted")
	}
	ds := blobDataset(r, 2, 3, 5)
	if _, err := Evaluate(ds, rforest.Config{Rand: r}, 100, r); err == nil {
		t.Fatal("k > n accepted")
	}
}

// TestEvaluateDetailedMatchesPerFoldTrain: training every fold on the
// rows of one shared table gives the confusion matrix that training each
// fold with rforest.Train on its rows copied out gives. The labels are
// drawn per row, so no fold's rows are grouped by class, and a third of
// the features are quantized so ties are common.
func TestEvaluateDetailedMatchesPerFoldTrain(t *testing.T) {
	const classes, k = 6, 5
	for _, seed := range []int64{1, 2, 3} {
		r := rand.New(rand.NewSource(seed))
		var ds features.Dataset
		for i := 0; i < 150; i++ {
			y := r.Intn(classes)
			x := make([]float64, 9)
			for f := range x {
				x[f] = float64(y) + 2*r.NormFloat64()
				if f%3 == 0 {
					x[f] = math.Round(x[f])
				}
			}
			ds.Add(x, string(rune('A'+y)))
		}
		cfg := rforest.Config{Trees: 8}

		rs := rand.New(rand.NewSource(seed))
		cfg.Rand = rs
		got, err := EvaluateDetailed(&ds, cfg, k, rs)
		if err != nil {
			t.Fatalf("seed %d: EvaluateDetailed: %v", seed, err)
		}

		rs = rand.New(rand.NewSource(seed))
		cfg.Rand = rs
		folds, err := Folds(ds.Len(), k, rs)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]int, len(ds.Classes))
		for i := range want {
			want[i] = make([]int, len(ds.Classes))
		}
		for _, test := range folds {
			held := map[int]bool{}
			for _, i := range test {
				held[i] = true
			}
			var trX [][]float64
			var trY []int
			for i := range ds.X {
				if !held[i] {
					trX, trY = append(trX, ds.X[i]), append(trY, ds.Y[i])
				}
			}
			forest, err := rforest.Train(cfg, trX, trY, len(ds.Classes))
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range test {
				p, err := forest.Predict(ds.X[i])
				if err != nil {
					t.Fatal(err)
				}
				want[ds.Y[i]][p]++
			}
		}
		if !reflect.DeepEqual(got.Confusion, want) {
			t.Fatalf("seed %d: confusion\n%v\nwant (per-fold Train)\n%v", seed, got.Confusion, want)
		}
	}
}
