// Package crossval implements the paper's validation protocol: 10-fold
// cross-validation where in each iteration 9 folds train the classifier
// and the held-out fold is scored, reporting top-1 and top-5 accuracy.
package crossval

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/ml/features"
	"repro/internal/ml/rforest"
	"repro/internal/obs"
)

// Result holds cross-validated accuracies.
type Result struct {
	// Top1 is the fraction of held-out samples whose true class ranked
	// first.
	Top1 float64
	// Top5 is the fraction whose true class ranked in the first five.
	Top5 float64
	// Folds actually evaluated.
	Folds int
}

// Folds partitions n sample indices into k shuffled folds of near-equal
// size.
func Folds(n, k int, rng *rand.Rand) ([][]int, error) {
	if k < 2 || k > n {
		return nil, fmt.Errorf("crossval: k %d outside [2,%d]", k, n)
	}
	if rng == nil {
		return nil, errors.New("crossval: nil random stream")
	}
	perm := rng.Perm(n)
	folds := make([][]int, k)
	for i, idx := range perm {
		folds[i%k] = append(folds[i%k], idx)
	}
	return folds, nil
}

// Detailed extends Result with the full confusion matrix.
type Detailed struct {
	Result
	// Confusion[y][p] counts held-out samples of true class y predicted
	// as class p.
	Confusion [][]int
}

// PerClassAccuracy returns each class's top-1 accuracy from the
// confusion matrix.
func (d *Detailed) PerClassAccuracy() []float64 {
	out := make([]float64, len(d.Confusion))
	for y, row := range d.Confusion {
		total := 0
		for _, c := range row {
			total += c
		}
		if total > 0 {
			out[y] = float64(row[y]) / float64(total)
		}
	}
	return out
}

// Evaluate runs k-fold cross-validation of a random forest over the
// dataset and returns aggregate top-1/top-5 accuracy.
func Evaluate(ds *features.Dataset, cfg rforest.Config, k int, rng *rand.Rand) (Result, error) {
	d, err := EvaluateDetailed(ds, cfg, k, rng)
	if err != nil {
		return Result{}, err
	}
	return d.Result, nil
}

// EvaluateDetailed is Evaluate plus the confusion matrix.
func EvaluateDetailed(ds *features.Dataset, cfg rforest.Config, k int, rng *rand.Rand) (Detailed, error) {
	if err := ds.Validate(); err != nil {
		return Detailed{}, err
	}
	folds, err := Folds(ds.Len(), k, rng)
	if err != nil {
		return Detailed{}, err
	}
	classes := len(ds.Classes)
	topN := 5
	if topN > classes {
		topN = classes
	}
	confusion := make([][]int, classes)
	for i := range confusion {
		confusion[i] = make([]int, classes)
	}
	// Every fold trains on rows of one table, sorted once.
	table, err := rforest.NewTable(ds.X)
	if err != nil {
		return Detailed{}, fmt.Errorf("crossval: %w", err)
	}
	inTest := make([]bool, ds.Len())
	var hits1, hitsN, total int
	for fi, test := range folds {
		clear(inTest)
		for _, i := range test {
			inTest[i] = true
		}
		train := make([]int, 0, ds.Len()-len(test))
		for i, held := range inTest {
			if !held {
				train = append(train, i)
			}
		}
		trainSpan := obs.StartSpan("ml.fold_train", nil)
		forest, err := table.Train(cfg, train, ds.Y, classes)
		trainSpan.End()
		if err != nil {
			return Detailed{}, fmt.Errorf("crossval: fold %d: %w", fi, err)
		}
		// One predict span per fold (not per sample), so the span's
		// histogram counts folds, like ml.fold_train's.
		predictSpan := obs.StartSpan("ml.fold_predict", nil)
		for _, i := range test {
			top, err := forest.TopK(ds.X[i], topN)
			if err != nil {
				predictSpan.End()
				return Detailed{}, err
			}
			confusion[ds.Y[i]][top[0]]++
			if top[0] == ds.Y[i] {
				hits1++
			}
			for _, c := range top {
				if c == ds.Y[i] {
					hitsN++
					break
				}
			}
			total++
		}
		predictSpan.End()
	}
	if total == 0 {
		return Detailed{}, errors.New("crossval: no test samples")
	}
	return Detailed{
		Result: Result{
			Top1:  float64(hits1) / float64(total),
			Top5:  float64(hitsN) / float64(total),
			Folds: len(folds),
		},
		Confusion: confusion,
	}, nil
}
