package rforest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/check"
)

// trainCase is one generated training problem: the data, the
// hyperparameters (Rand left nil) and the seed of the random stream.
type trainCase struct {
	X       [][]float64
	Y       []int
	Classes int
	Cfg     Config
	Seed    int64
}

// trainCases generates tie-heavy problems: most features are quantized
// to a few levels, some rows repeat (with their label or another), and
// some values sit one ulp apart so a midpoint threshold rounds onto the
// upper value. Sizes grow to a few hundred samples, past the ~220
// distinct samples of a Table III bootstrap draw.
func trainCases() check.Gen[trainCase] {
	return check.Gen[trainCase]{
		Generate: func(r *rand.Rand, size int) trainCase {
			n := 1 + r.Intn(3*size+1)
			if r.Intn(4) == 0 {
				// Row counts at the edges of column's 64-bit words.
				n = []int{1, 63, 64, 65, 129}[r.Intn(5)]
			}
			nFeat := 1 + r.Intn(10)
			classes := 2 + r.Intn(8)
			levels := make([]int, nFeat) // 0: continuous
			for f := range levels {
				if r.Intn(4) > 0 {
					levels[f] = 1 + r.Intn(6)
				}
			}
			tc := trainCase{Classes: classes, Seed: r.Int63()}
			for i := 0; i < n; i++ {
				if i > 0 && r.Intn(5) == 0 {
					j := r.Intn(i)
					y := tc.Y[j]
					if r.Intn(2) == 0 {
						y = r.Intn(classes)
					}
					tc.X = append(tc.X, append([]float64(nil), tc.X[j]...))
					tc.Y = append(tc.Y, y)
					continue
				}
				y := r.Intn(classes)
				x := make([]float64, nFeat)
				for f := range x {
					v := float64(y) + 2*r.NormFloat64()
					switch {
					case levels[f] == 1:
						v = math.Copysign(0, v) // +0 and -0 only: equal values
					case levels[f] == 2:
						// 1 plus 0-3 ulps: the midpoint of 1+1ulp and
						// 1+2ulp rounds to even, onto the upper value.
						v = 1
						for k := r.Intn(4); k > 0; k-- {
							v = math.Nextafter(v, 2)
						}
					case levels[f] > 0:
						v = math.Round(v / float64(levels[f]))
					}
					x[f] = v
				}
				tc.X = append(tc.X, x)
				tc.Y = append(tc.Y, y)
			}
			tc.Cfg = Config{
				Trees:    1 + r.Intn(4),
				MaxDepth: 1 + r.Intn(12),
				MinLeaf:  1 + r.Intn(3),
			}
			if r.Intn(2) == 0 {
				tc.Cfg.FeaturesPerSplit = 1 + r.Intn(nFeat)
			}
			return tc
		},
		Shrink: func(tc trainCase) []trainCase {
			var out []trainCase
			if tc.Cfg.Trees > 1 {
				c := tc
				c.Cfg.Trees = 1
				out = append(out, c)
			}
			if n := len(tc.X); n > 1 {
				for _, keep := range [][2]int{{0, n / 2}, {n / 2, n}} {
					c := tc
					c.X, c.Y = tc.X[keep[0]:keep[1]], tc.Y[keep[0]:keep[1]]
					out = append(out, c)
				}
			}
			return out
		},
		Describe: func(tc trainCase) string {
			return fmt.Sprintf("%d samples x %d features, %d classes, cfg %+v, seed %d\nX=%v\nY=%v",
				len(tc.X), len(tc.X[0]), tc.Classes, tc.Cfg, tc.Seed, tc.X, tc.Y)
		},
	}
}

// trainBoth fits tc on all its rows with Table.Train, its split search
// pruned with margin, and with the reference builder, each on its own
// copy of the seeded stream, and returns the forests and the next Int63
// each stream yields afterwards.
func trainBoth(tc trainCase, margin func(int) float64) (got, want *Forest, gotNext, wantNext int64, err error) {
	table, err := NewTable(tc.X)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	rows := make([]int, len(tc.X))
	for i := range rows {
		rows[i] = i
	}
	cfg := tc.Cfg
	cfg.Rand = rand.New(rand.NewSource(tc.Seed))
	if got, err = table.train(cfg, rows, tc.Y, tc.Classes, margin); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("Train: %w", err)
	}
	gotNext = cfg.Rand.Int63()
	cfg.Rand = rand.New(rand.NewSource(tc.Seed))
	if want, err = trainReference(cfg, tc.X, tc.Y, tc.Classes); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("reference: %w", err)
	}
	return got, want, gotNext, cfg.Rand.Int63(), nil
}

// forestDiff describes the first difference between two forests, bit
// for bit, or returns "" when they are identical.
func forestDiff(got, want *Forest) string {
	if len(got.trees) != len(want.trees) {
		return fmt.Sprintf("%d trees, want %d", len(got.trees), len(want.trees))
	}
	for t := range want.trees {
		g, w := got.trees[t].nodes, want.trees[t].nodes
		if len(g) != len(w) {
			return fmt.Sprintf("tree %d: %d nodes, want %d", t, len(g), len(w))
		}
		for i := range w {
			a, b := g[i], w[i]
			if a.feature != b.feature || math.Float64bits(a.threshold) != math.Float64bits(b.threshold) ||
				a.left != b.left || a.right != b.right {
				return fmt.Sprintf("tree %d node %d: split {%d %v %d %d}, want {%d %v %d %d}",
					t, i, a.feature, a.threshold, a.left, a.right, b.feature, b.threshold, b.left, b.right)
			}
			if len(a.proba) != len(b.proba) {
				return fmt.Sprintf("tree %d node %d: %d probabilities, want %d", t, i, len(a.proba), len(b.proba))
			}
			for c := range b.proba {
				if math.Float64bits(a.proba[c]) != math.Float64bits(b.proba[c]) {
					return fmt.Sprintf("tree %d node %d class %d: proba %v, want %v", t, i, c, a.proba[c], b.proba[c])
				}
			}
		}
	}
	for f := range want.importance {
		if math.Float64bits(got.importance[f]) != math.Float64bits(want.importance[f]) {
			return fmt.Sprintf("importance[%d] = %v, want %v", f, got.importance[f], want.importance[f])
		}
	}
	return ""
}

// matchesReference is the property that Train, pruned with margin,
// grows exactly the reference builder's forest — every node's split,
// threshold bits and leaf distribution, and the importances — and leaves
// the random stream in the same state.
func matchesReference(margin func(int) float64) func(*check.T, trainCase) {
	return func(c *check.T, tc trainCase) {
		c.Classify(len(tc.X) >= 128, "128+ samples")
		c.Classify(len(tc.X)%64 <= 1 || len(tc.X)%64 == 63, "samples at a word edge")
		c.Classify(tc.Cfg.FeaturesPerSplit == 0, "default-features")
		c.Classify(tc.Cfg.MinLeaf > 1, "min-leaf")
		got, want, gotNext, wantNext, err := trainBoth(tc, margin)
		if err != nil {
			c.Fatalf("%v", err)
		}
		if d := forestDiff(got, want); d != "" {
			c.Fatalf("forests differ: %s", d)
		}
		if gotNext != wantNext {
			c.Fatalf("random stream after Train yields %d, reference %d", gotNext, wantNext)
		}
	}
}

func TestPropTrainMatchesReference(t *testing.T) {
	check.Forall(t, trainCases(), matchesReference(pruneMargin))
}

// subsetCase is a training problem and a shuffled subset of its rows.
type subsetCase struct {
	trainCase
	Rows []int
}

// subsetCases draws a trainCase and a random nonempty subset of its
// rows in random order. Shrinking halves the subset and the ensemble;
// the table itself is kept.
func subsetCases() check.Gen[subsetCase] {
	g := trainCases()
	return check.Gen[subsetCase]{
		Generate: func(r *rand.Rand, size int) subsetCase {
			tc := g.Generate(r, size)
			perm := r.Perm(len(tc.X))
			return subsetCase{tc, perm[:1+r.Intn(len(perm))]}
		},
		Shrink: func(sc subsetCase) []subsetCase {
			var out []subsetCase
			if h := len(sc.Rows) / 2; h > 0 {
				out = append(out, subsetCase{sc.trainCase, sc.Rows[:h]}, subsetCase{sc.trainCase, sc.Rows[h:]})
			}
			if sc.Cfg.Trees > 1 {
				c := sc
				c.Cfg.Trees = 1
				out = append(out, c)
			}
			return out
		},
		Describe: func(sc subsetCase) string {
			return fmt.Sprintf("%s\nrows=%v", g.Describe(sc.trainCase), sc.Rows)
		},
	}
}

// TestPropTableTrainMatchesTrain: Table.Train over a shuffled subset of
// the table's rows grows the forest Train grows on those rows copied
// out in the same order, node for node, and leaves the random stream in
// the same state.
func TestPropTableTrainMatchesTrain(t *testing.T) {
	check.Forall(t, subsetCases(), func(c *check.T, sc subsetCase) {
		c.Classify(len(sc.Rows) < len(sc.X), "proper subset")
		c.Classify(len(sc.X) > 64, "multi-word table")
		X, Y := make([][]float64, len(sc.Rows)), make([]int, len(sc.Rows))
		for j, r := range sc.Rows {
			X[j], Y[j] = sc.X[r], sc.Y[r]
		}
		cfg := sc.Cfg
		cfg.Rand = rand.New(rand.NewSource(sc.Seed))
		want, err := Train(cfg, X, Y, sc.Classes)
		if err != nil {
			c.Fatalf("Train: %v", err)
		}
		wantNext := cfg.Rand.Int63()
		table, err := NewTable(sc.X)
		if err != nil {
			c.Fatalf("NewTable: %v", err)
		}
		cfg.Rand = rand.New(rand.NewSource(sc.Seed))
		got, err := table.Train(cfg, sc.Rows, sc.Y, sc.Classes)
		if err != nil {
			c.Fatalf("Table.Train: %v", err)
		}
		if d := forestDiff(got, want); d != "" {
			c.Fatalf("forests differ: %s", d)
		}
		if next := cfg.Rand.Int63(); next != wantNext {
			c.Fatalf("random stream after Table.Train yields %d, Train %d", next, wantNext)
		}
	})
}

// TestMutantPruneMargin shrinks the split search's pruning margin below
// the error bound it stands for, so boundaries that splitGini would rank
// first are skipped, and requires the equivalence property to fail.
func TestMutantPruneMargin(t *testing.T) {
	for _, m := range []float64{-1e-3, -1e-12, 0} {
		t.Run(fmt.Sprint(m), func(t *testing.T) {
			margin := func(int) float64 { return m }
			rep := check.Run(t.Name(), trainCases(), matchesReference(margin), check.Iters(1000))
			if rep.ConfigErr != "" {
				t.Fatal(rep.ConfigErr)
			}
			if !rep.Failed {
				t.Fatalf("pruning margin %v went unnoticed in %d problems", m, rep.Iters)
			}
			t.Logf("caught at problem %d: %s", rep.FailIter, rep.Logs)
		})
	}
}

// splitCase is one node's bootstrap draw in sweep order: the class and
// the integer multiplicity of each distinct sample.
type splitCase struct {
	Classes int
	C       []int
	W       []float64
}

// splitCases generates nodes with up to ~200 classes, mostly
// bootstrap-like multiplicities of 1-4 and some in the thousands.
func splitCases() check.Gen[splitCase] {
	return check.Gen[splitCase]{
		Generate: func(r *rand.Rand, size int) splitCase {
			sc := splitCase{Classes: 2 + r.Intn(2*size)}
			for i := 1 + r.Intn(4*size); i >= 0; i-- {
				w := 1 + r.Intn(4)
				if r.Intn(4) == 0 {
					w = 1 + r.Intn(10000)
				}
				sc.C = append(sc.C, r.Intn(sc.Classes))
				sc.W = append(sc.W, float64(w))
			}
			return sc
		},
		Shrink: func(sc splitCase) []splitCase {
			if len(sc.C) <= 2 {
				return nil
			}
			h := len(sc.C) / 2
			return []splitCase{{sc.Classes, sc.C[:h+1], sc.W[:h+1]}, {sc.Classes, sc.C[h-1:], sc.W[h-1:]}}
		},
		Describe: func(sc splitCase) string {
			return fmt.Sprintf("%d classes\nC=%v\nW=%v", sc.Classes, sc.C, sc.W)
		},
	}
}

// TestPropGiniBoundWithinMargin sweeps a node the way bestSplit does:
// moveSquares keeps sl and sr equal to the sums of squared counts,
// and at every split position giniBound lies within pruneMargin of
// splitGini.
func TestPropGiniBoundWithinMargin(t *testing.T) {
	sumSquares := func(h []float64) (s float64) {
		for _, v := range h {
			s += v * v
		}
		return s
	}
	check.Forall(t, splitCases(), func(c *check.T, sc splitCase) {
		hist := make([]float64, sc.Classes)
		n := 0.0
		for i, cl := range sc.C {
			hist[cl] += sc.W[i]
			n += sc.W[i]
		}
		var present []int
		for cl, v := range hist {
			if v > 0 {
				present = append(present, cl)
			}
		}
		c.Classify(len(present) >= 32, "32+ classes")
		c.Classify(n >= 10000, "n >= 10000")
		margin := pruneMargin(len(present))
		left, right := make([]float64, sc.Classes), append([]float64(nil), hist...)
		nl, sl, sr := 0.0, 0.0, sumSquares(hist)
		for i, cl := range sc.C[:len(sc.C)-1] {
			w := sc.W[i]
			sl, sr = moveSquares(sl, sr, left[cl], right[cl], w)
			left[cl] += w
			right[cl] -= w
			nl += w
			if sl != sumSquares(left) || sr != sumSquares(right) {
				c.Fatalf("position %d: sl, sr = %v, %v, want %v, %v", i, sl, sr, sumSquares(left), sumSquares(right))
			}
			nr := n - nl
			bound, g := giniBound(sl, sr, nl, nr, n), splitGini(left, right, present, nl, nr, n)
			if d := math.Abs(bound - g); d > margin {
				c.Fatalf("position %d: |giniBound %v - splitGini %v| = %g > margin %g", i, bound, g, d, margin)
			}
		}
	})
}

// table3Shaped builds data shaped like one Table III cross-validation
// fold: 39 classes x 9 training traces, 70 features. Every feature has a
// per-class mean plus noise; a third are quantized to sensor-like steps,
// so ties are common.
func table3Shaped(r *rand.Rand) ([][]float64, []int) {
	const classes, perClass, nFeat = 39, 9, 70
	mean := make([][]float64, classes)
	for c := range mean {
		mean[c] = make([]float64, nFeat)
		for f := range mean[c] {
			mean[c][f] = 3 * r.NormFloat64()
		}
	}
	var X [][]float64
	var Y []int
	for c := 0; c < classes; c++ {
		for i := 0; i < perClass; i++ {
			x := make([]float64, nFeat)
			for f := range x {
				x[f] = mean[c][f] + r.NormFloat64()
				if f%3 == 0 {
					x[f] = math.Round(x[f]*4) / 4
				}
			}
			X = append(X, x)
			Y = append(Y, c)
		}
	}
	return X, Y
}

func TestTrainMatchesReferenceTable3Shaped(t *testing.T) {
	X, Y := table3Shaped(rand.New(rand.NewSource(3)))
	tc := trainCase{X: X, Y: Y, Classes: 39, Cfg: Config{Trees: 10}, Seed: 5}
	got, want, gotNext, wantNext, err := trainBoth(tc, pruneMargin)
	if err != nil {
		t.Fatal(err)
	}
	if d := forestDiff(got, want); d != "" {
		t.Fatalf("forests differ: %s", d)
	}
	if gotNext != wantNext {
		t.Fatalf("random stream after Train yields %d, reference %d", gotNext, wantNext)
	}
}

// BenchmarkTrain fits a 10-tree forest on one table3-shaped fold.
func BenchmarkTrain(b *testing.B) {
	X, Y := table3Shaped(rand.New(rand.NewSource(3)))
	r := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(Config{Trees: 10, Rand: r}, X, Y, 39); err != nil {
			b.Fatal(err)
		}
	}
}
