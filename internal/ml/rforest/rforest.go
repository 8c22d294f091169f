// Package rforest is a from-scratch random-forest classifier matching
// the paper's configuration: 100 trees, maximum depth 32, Gini impurity
// as the splitting criterion, bootstrap sampling per tree, and a random
// feature subset evaluated at every split.
package rforest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// Config holds the forest hyperparameters. The zero value of each field
// selects the paper's setting.
type Config struct {
	// Trees is the ensemble size; zero means 100.
	Trees int
	// MaxDepth limits tree depth; zero means 32.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf; zero means 1.
	MinLeaf int
	// FeaturesPerSplit is the number of candidate features per split;
	// zero means ⌈√F⌉.
	FeaturesPerSplit int
	// Rand drives bootstrap sampling and feature selection. Required.
	Rand *rand.Rand
}

// node is one decision-tree node, stored flat in the tree's node slice.
type node struct {
	feature   int // -1 for leaves
	threshold float64
	left      int32
	right     int32
	// class histogram at the node (leaves only), normalized.
	proba []float64
}

type tree struct{ nodes []node }

// Forest is a trained random forest.
type Forest struct {
	cfg        Config
	trees      []tree
	features   int
	classes    int
	importance []float64
}

// Train fits a forest on samples X with labels Y in [0, classes).
func Train(cfg Config, X [][]float64, Y []int, classes int) (*Forest, error) {
	if cfg.Trees == 0 {
		cfg.Trees = 100
	}
	if cfg.MaxDepth == 0 {
		cfg.MaxDepth = 32
	}
	if cfg.MinLeaf == 0 {
		cfg.MinLeaf = 1
	}
	if cfg.Rand == nil {
		return nil, errors.New("rforest: nil random stream")
	}
	if cfg.Trees < 1 || cfg.MaxDepth < 1 || cfg.MinLeaf < 1 {
		return nil, errors.New("rforest: non-positive hyperparameter")
	}
	if len(X) == 0 || len(X) != len(Y) {
		return nil, fmt.Errorf("rforest: %d samples vs %d labels", len(X), len(Y))
	}
	if classes < 2 {
		return nil, errors.New("rforest: need at least two classes")
	}
	nFeat := len(X[0])
	if nFeat == 0 {
		return nil, errors.New("rforest: zero-width feature vectors")
	}
	for i, x := range X {
		if len(x) != nFeat {
			return nil, fmt.Errorf("rforest: sample %d has %d features, want %d", i, len(x), nFeat)
		}
		// The split search orders values by comparison, which NaN defeats.
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("rforest: sample %d feature %d is %v, want finite", i, j, v)
			}
		}
	}
	for i, y := range Y {
		if y < 0 || y >= classes {
			return nil, fmt.Errorf("rforest: label %d of sample %d outside [0,%d)", y, i, classes)
		}
	}
	if cfg.FeaturesPerSplit == 0 {
		cfg.FeaturesPerSplit = int(math.Ceil(math.Sqrt(float64(nFeat))))
	}
	if cfg.FeaturesPerSplit < 1 || cfg.FeaturesPerSplit > nFeat {
		return nil, fmt.Errorf("rforest: features per split %d outside [1,%d]", cfg.FeaturesPerSplit, nFeat)
	}

	f := &Forest{cfg: cfg, features: nFeat, classes: classes}
	f.trees = make([]tree, cfg.Trees)
	f.importance = make([]float64, nFeat)
	b := newBuilder(cfg, X, Y, classes)
	for t := range f.trees {
		f.trees[t] = b.tree()
	}
	// Normalize the accumulated impurity decreases to sum to 1.
	var total float64
	for _, v := range b.importance {
		total += v
	}
	if total > 0 {
		for i, v := range b.importance {
			f.importance[i] = v / total
		}
	}
	return f, nil
}

// Importances returns the normalized mean decrease in Gini impurity per
// feature (summing to 1 when any split occurred) — which parts of the
// trace the classifier actually keyed on.
func (f *Forest) Importances() []float64 {
	return append([]float64(nil), f.importance...)
}

// presortMin is the node size, in distinct samples, from which a split
// is searched on the presorted columns. A smaller node sorts its sampled
// features directly, which is cheaper than keeping every column
// partitioned below it.
const presortMin = 64

// builder grows the trees of one Train call. Each feature column is
// sorted once; each tree filters the sorted columns down to its bootstrap
// draw, and each split partitions them stably, so no large node sorts.
// All scratch is reused across nodes and trees.
//
// The forest is the one a per-node sort over all classes would grow, bit
// for bit: a split depends only on the label counts at distinct-value
// boundaries, which the order of tied values never reaches, and a class
// absent from a node adds 0 to its Gini sum.
type builder struct {
	cfg    Config
	y      []int
	xt     [][]float64 // xt[f][s] = X[s][f]
	sorted [][]int32   // sorted[f]: every sample, ascending by xt[f]

	// Per tree.
	weight    []float64 // bootstrap multiplicity per sample; they sum to len(X)
	cols      [][]int32 // cols[f]: drawn samples ascending by xt[f]; each node owns one [lo,hi)
	nodes     []node
	leafProba []float64 // leaf class distributions, in node order

	// Per node, dead once the node's split is chosen.
	hist, left, right []float64
	present           []int // classes with a nonzero count, ascending
	feats             []int
	pairs             []pair
	goLeft            []bool
	spill             []int32

	importance []float64 // accumulated impurity decrease per feature
}

type pair struct {
	v float64
	s int32
}

func newBuilder(cfg Config, X [][]float64, Y []int, classes int) *builder {
	n, nFeat := len(X), len(X[0])
	b := &builder{
		cfg:        cfg,
		y:          Y,
		xt:         make([][]float64, nFeat),
		sorted:     make([][]int32, nFeat),
		weight:     make([]float64, n),
		cols:       make([][]int32, nFeat),
		hist:       make([]float64, classes),
		left:       make([]float64, classes),
		right:      make([]float64, classes),
		feats:      make([]int, nFeat),
		pairs:      make([]pair, n),
		goLeft:     make([]bool, n),
		spill:      make([]int32, 0, n),
		importance: make([]float64, nFeat),
	}
	xt, sorted, cols := make([]float64, nFeat*n), make([]int32, nFeat*n), make([]int32, nFeat*n)
	for f := range b.xt {
		xf, order := xt[f*n:(f+1)*n], sorted[f*n:(f+1)*n]
		for s, x := range X {
			xf[s] = x[f]
			b.pairs[s] = pair{v: x[f], s: int32(s)}
		}
		slices.SortFunc(b.pairs, byValue)
		for i, p := range b.pairs {
			order[i] = p.s
		}
		b.xt[f], b.sorted[f], b.cols[f] = xf, order, cols[f*n:(f+1)*n]
	}
	return b
}

// byValue orders pairs by ascending value; Train has rejected NaN.
func byValue(p, q pair) int {
	switch {
	case p.v < q.v:
		return -1
	case p.v > q.v:
		return 1
	}
	return 0
}

// tree draws a bootstrap sample and grows one tree on it.
func (b *builder) tree() tree {
	clear(b.weight)
	for range b.weight {
		b.weight[b.cfg.Rand.Intn(len(b.weight))]++
	}
	m := 0
	for f, order := range b.sorted {
		col := b.cols[f][:0]
		for _, s := range order {
			if b.weight[s] > 0 {
				col = append(col, s)
			}
		}
		m = len(col)
	}
	b.nodes, b.leafProba = b.nodes[:0], b.leafProba[:0]
	b.grow(0, m, 0)
	// Copy out of the scratch, cutting the leaf distributions from one slab.
	nodes := append([]node(nil), b.nodes...)
	proba := append([]float64(nil), b.leafProba...)
	k := len(b.hist)
	for i := range nodes {
		if nodes[i].feature < 0 {
			nodes[i].proba, proba = proba[:k:k], proba[k:]
		}
	}
	return tree{nodes: nodes}
}

// grow builds the subtree over the samples in [lo,hi) of the columns and
// returns its node index.
func (b *builder) grow(lo, hi, depth int) int32 {
	n := b.histogram(lo, hi)
	id := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{feature: -1})
	minLeaf := float64(b.cfg.MinLeaf)
	if len(b.present) <= 1 || depth >= b.cfg.MaxDepth || n < 2*minLeaf {
		b.leaf(n)
		return id
	}
	presorted := hi-lo >= presortMin
	feat, thr, ok := b.bestSplit(lo, hi, n, presorted)
	if !ok {
		b.leaf(n)
		return id
	}
	nl, ml := b.divide(lo, hi, feat, thr)
	nr := n - nl
	if nl < minLeaf || nr < minLeaf {
		b.leaf(n)
		return id
	}
	b.accumulateImportance(feat, n, nl, nr)
	b.partition(lo, hi, presorted)
	l := b.grow(lo, lo+ml, depth+1)
	r := b.grow(lo+ml, hi, depth+1)
	b.nodes[id].feature = feat
	b.nodes[id].threshold = thr
	b.nodes[id].left = l
	b.nodes[id].right = r
	return id
}

// histogram fills b.hist and b.present for the samples in [lo,hi) and
// returns their bootstrap count.
func (b *builder) histogram(lo, hi int) float64 {
	clear(b.hist)
	n := 0.0
	for _, s := range b.cols[0][lo:hi] {
		w := b.weight[s]
		b.hist[b.y[s]] += w
		n += w
	}
	b.present = b.present[:0]
	for c, v := range b.hist {
		if v > 0 {
			b.present = append(b.present, c)
		}
	}
	return n
}

// accumulateImportance records the split's weighted Gini decrease; b.left
// and b.right hold the children's histograms.
func (b *builder) accumulateImportance(feat int, n, nl, nr float64) {
	decrease := gini(b.hist, n) - nl/n*gini(b.left, nl) - nr/n*gini(b.right, nr)
	if decrease > 0 {
		b.importance[feat] += n / float64(len(b.weight)) * decrease
	}
}

func (b *builder) leaf(n float64) {
	for _, c := range b.hist {
		b.leafProba = append(b.leafProba, c/n)
	}
}

// featureSubset samples cfg.FeaturesPerSplit distinct features: the
// prefix of rand.Perm, built in a reused buffer with the same Intn calls.
func (b *builder) featureSubset() []int {
	m := b.feats
	for i := range m {
		j := b.cfg.Rand.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m[:b.cfg.FeaturesPerSplit]
}

// bestSplit searches a random feature subset for the threshold with the
// lowest weighted Gini impurity. A presorted node reads each feature's
// order from its column; a smaller one sorts its sample list.
func (b *builder) bestSplit(lo, hi int, n float64, presorted bool) (feat int, thr float64, ok bool) {
	bestGini := math.Inf(1)
	pairs := b.pairs[:hi-lo]
	for _, f := range b.featureSubset() {
		col, xf := b.cols[0], b.xt[f]
		if presorted {
			col = b.cols[f]
		}
		for i, s := range col[lo:hi] {
			pairs[i] = pair{v: xf[s], s: s}
		}
		if !presorted {
			slices.SortFunc(pairs, byValue)
		}
		left, right := b.left, b.right
		clear(left)
		copy(right, b.hist)
		// Sweep split positions between distinct values.
		nl := 0.0
		for i := 0; i < len(pairs)-1; i++ {
			s := pairs[i].s
			w, c := b.weight[s], b.y[s]
			left[c] += w
			right[c] -= w
			nl += w
			if pairs[i].v == pairs[i+1].v {
				continue
			}
			if g := splitGini(left, right, b.present, nl, n-nl, n); g < bestGini {
				bestGini = g
				feat = f
				thr = (pairs[i].v + pairs[i+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

// splitGini is nl/n*gini(left, nl) + nr/n*gini(right, nr) with both
// sums taken over the present classes only. The skipped classes have
// zero counts and subtract 0*0, so the result is the same float.
func splitGini(left, right []float64, present []int, nl, nr, n float64) float64 {
	gl, gr := 1.0, 1.0
	for _, c := range present {
		pl, pr := left[c]/nl, right[c]/nr
		gl -= pl * pl
		gr -= pr * pr
	}
	return nl/n*gl + nr/n*gr
}

// divide sends each sample in [lo,hi) to a side of thr on feat, recording
// it in b.goLeft and the children's histograms in b.left and b.right. It
// returns the left child's bootstrap count and its number of distinct
// samples. The side comes from the comparison, not from the boundary the
// threshold was chosen at: the midpoint of two adjacent floats can round
// onto the upper one.
func (b *builder) divide(lo, hi, feat int, thr float64) (nl float64, ml int) {
	clear(b.left)
	clear(b.right)
	xf := b.xt[feat]
	for _, s := range b.cols[0][lo:hi] {
		w, c := b.weight[s], b.y[s]
		left := xf[s] <= thr
		b.goLeft[s] = left
		if left {
			b.left[c] += w
			nl += w
			ml++
		} else {
			b.right[c] += w
		}
	}
	return nl, ml
}

// partition reorders [lo,hi) of the columns stably, left-going samples
// first. Below presortMin only the sample list cols[0] is kept: no node
// under a small one reads the other columns.
func (b *builder) partition(lo, hi int, presorted bool) {
	cols := b.cols[:1]
	if presorted {
		cols = b.cols
	}
	for _, col := range cols {
		seg, k, spill := col[lo:hi], 0, b.spill[:0]
		for _, s := range seg {
			if b.goLeft[s] {
				seg[k] = s
				k++
			} else {
				spill = append(spill, s)
			}
		}
		copy(seg[k:], spill)
	}
}

// gini computes the Gini impurity of a class histogram with total n.
func gini(hist []float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	s := 1.0
	for _, c := range hist {
		p := c / n
		s -= p * p
	}
	return s
}

// Features returns the feature-vector width the forest was trained on.
func (f *Forest) Features() int { return f.features }

// Classes returns the number of classes.
func (f *Forest) Classes() int { return f.classes }

// Trees returns the ensemble size.
func (f *Forest) Trees() int { return len(f.trees) }

// Proba returns the mean class distribution across the ensemble.
func (f *Forest) Proba(x []float64) ([]float64, error) {
	if len(x) != f.features {
		return nil, fmt.Errorf("rforest: sample has %d features, want %d", len(x), f.features)
	}
	out := make([]float64, f.classes)
	for _, t := range f.trees {
		i := int32(0)
		for t.nodes[i].feature >= 0 {
			n := t.nodes[i]
			if x[n.feature] <= n.threshold {
				i = n.left
			} else {
				i = n.right
			}
		}
		for c, p := range t.nodes[i].proba {
			out[c] += p
		}
	}
	for c := range out {
		out[c] /= float64(len(f.trees))
	}
	return out, nil
}

// Predict returns the most probable class.
func (f *Forest) Predict(x []float64) (int, error) {
	top, err := f.TopK(x, 1)
	if err != nil {
		return 0, err
	}
	return top[0], nil
}

// TopK returns the k most probable classes in descending order of
// probability (ties broken by class index, deterministically).
func (f *Forest) TopK(x []float64, k int) ([]int, error) {
	if k < 1 || k > f.classes {
		return nil, fmt.Errorf("rforest: k %d outside [1,%d]", k, f.classes)
	}
	proba, err := f.Proba(x)
	if err != nil {
		return nil, err
	}
	order := make([]int, f.classes)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return proba[order[a]] > proba[order[b]] })
	return order[:k], nil
}
