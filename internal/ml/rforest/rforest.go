// Package rforest is a from-scratch random-forest classifier matching
// the paper's configuration: 100 trees, maximum depth 32, Gini impurity
// as the splitting criterion, bootstrap sampling per tree, and a random
// feature subset evaluated at every split.
package rforest

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
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
	return train(cfg, X, Y, classes, pruneMargin)
}

// train is Train with the split search's pruning margin as a parameter,
// so tests can check that a smaller margin changes the forest.
func train(cfg Config, X [][]float64, Y []int, classes int, margin func(present int) float64) (*Forest, error) {
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
	b.margin = margin
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

// builder grows the trees of one Train call. Each feature column is
// sorted once; each tree filters the sorted columns down to its
// bootstrap draw, and each split partitions them stably, so no node
// sorts. All scratch is reused across nodes and trees.
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
	margin func(present int) float64

	// Per tree.
	weight    []float64 // bootstrap multiplicity per sample; they sum to len(X)
	drawn     []uint8   // 1 for a sample with nonzero weight, else 0
	cols      [][]int32 // cols[f]: drawn samples ascending by xt[f]; each node owns one [lo,hi)
	nodes     []node
	leafProba []float64 // leaf class distributions, in node order

	// Per node, dead once the node's split is chosen.
	hist, left, right []float64
	present           []int // classes with a nonzero count, ascending
	feats             []int
	goLeft            []uint8 // 1 for a sample going left, else 0
	spill             []int32

	importance []float64 // accumulated impurity decrease per feature
}

func newBuilder(cfg Config, X [][]float64, Y []int, classes int) *builder {
	n, nFeat := len(X), len(X[0])
	b := &builder{
		cfg:        cfg,
		y:          Y,
		xt:         make([][]float64, nFeat),
		sorted:     make([][]int32, nFeat),
		weight:     make([]float64, n),
		drawn:      make([]uint8, n),
		cols:       make([][]int32, nFeat),
		hist:       make([]float64, classes),
		left:       make([]float64, classes),
		right:      make([]float64, classes),
		feats:      make([]int, nFeat),
		goLeft:     make([]uint8, n),
		spill:      make([]int32, n),
		importance: make([]float64, nFeat),
	}
	xt, sorted, cols := make([]float64, nFeat*n), make([]int32, nFeat*n), make([]int32, nFeat*n)
	// Sort each column as integers, without a comparator: the value's
	// order key with the sample index written over its low bits.
	mask := uint64(1)<<bits.Len(uint(n-1)) - 1
	keys := make([]uint64, n)
	for f := range b.xt {
		xf, order := xt[f*n:(f+1)*n], sorted[f*n:(f+1)*n]
		for s, x := range X {
			xf[s] = x[f]
			keys[s] = orderKey(x[f])&^mask | uint64(s)
		}
		slices.Sort(keys)
		// Values that differ only in the overwritten bits share a run of
		// equal high bits: sort each such run by value. A run of equal
		// values is already in order.
		for i := 0; i < n; {
			j, inOrder := i+1, true
			for ; j < n && keys[j]&^mask == keys[i]&^mask; j++ {
				inOrder = inOrder && xf[keys[j-1]&mask] <= xf[keys[j]&mask]
			}
			if !inOrder {
				slices.SortFunc(keys[i:j], func(p, q uint64) int { return cmp.Compare(xf[p&mask], xf[q&mask]) })
			}
			i = j
		}
		for i, k := range keys {
			order[i] = int32(k & mask)
		}
		b.xt[f], b.sorted[f], b.cols[f] = xf, order, cols[f*n:(f+1)*n]
	}
	return b
}

// orderKey maps a finite v to an integer that orders as v does, putting
// -0 before the equal +0; Train has rejected NaN.
func orderKey(v float64) uint64 {
	u := math.Float64bits(v)
	if u>>63 != 0 {
		return ^u
	}
	return u | 1<<63
}

// tree draws a bootstrap sample and grows one tree on it.
func (b *builder) tree() tree {
	clear(b.weight)
	for range b.weight {
		b.weight[b.cfg.Rand.Intn(len(b.weight))]++
	}
	for s, w := range b.weight {
		b.drawn[s] = b2u(w > 0)
	}
	// Filter without a branch: every sample is written, only the drawn
	// ones advance the write position.
	m := 0
	for f, order := range b.sorted {
		col := b.cols[f]
		m = 0
		for _, s := range order {
			col[m] = s
			m += int(b.drawn[s])
		}
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
	feat, thr, ok := b.bestSplit(lo, hi, n)
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
	b.partition(lo, hi)
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
// lowest weighted Gini impurity, reading each feature's order from its
// column.
//
// At each distinct-value boundary the exact impurity giniBound is known
// in O(1): it skips the float splitGini whenever it shows, with
// pruneMargin to spare, that the boundary cannot beat the best so far.
// Every boundary that could win is still evaluated by splitGini, so the
// chosen split is the same, bit for bit.
func (b *builder) bestSplit(lo, hi int, n float64) (feat int, thr float64, ok bool) {
	bestGini := math.Inf(1)
	margin := b.margin(len(b.present))
	sq := 0.0
	for _, c := range b.present {
		sq += b.hist[c] * b.hist[c]
	}
	for _, f := range b.featureSubset() {
		col, xf := b.cols[f][lo:hi], b.xt[f]
		left, right := b.left, b.right
		clear(left)
		copy(right, b.hist)
		// Sweep split positions between distinct values, keeping
		// sl = Σ left[c]² and sr = Σ right[c]² exactly.
		nl, sl, sr := 0.0, 0.0, sq
		for i, s := range col[:len(col)-1] {
			w, c := b.weight[s], b.y[s]
			sl, sr = moveSquares(sl, sr, left[c], right[c], w)
			left[c] += w
			right[c] -= w
			nl += w
			v, next := xf[s], xf[col[i+1]]
			if v == next {
				continue
			}
			nr := n - nl
			if giniBound(sl, sr, nl, nr, n)-margin >= bestGini {
				continue
			}
			if g := splitGini(left, right, b.present, nl, nr, n); g < bestGini {
				bestGini = g
				feat = f
				thr = (v + next) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

// moveSquares returns the sums of squared class counts sl and sr after
// w samples of a class counted l on the left and r on the right cross
// from right to left: (l+w)² − l² = (2l+w)·w and (r−w)² − r² = (w−2r)·w.
func moveSquares(sl, sr, l, r, w float64) (float64, float64) {
	return sl + (2*l+w)*w, sr + (w-2*r)*w
}

// giniBound is the exact weighted Gini impurity of a split,
// 1 − (sl/nl + sr/nr)/n, up to its own rounding. Bootstrap weights are
// integer multiplicities, so the class counts, nl, nr, n and the sums of
// squared counts sl and sr are all integers, held exactly in a float64
// while n² < 2⁵³ (n below 9·10⁷ samples).
func giniBound(sl, sr, nl, nr, n float64) float64 {
	return 1 - (sl/nl+sr/nr)/n
}

// pruneMargin bounds |giniBound − splitGini| for a node with k present
// classes. With u = 2⁻⁵³ the unit roundoff:
//
//   - splitGini rounds each p = count/nl once and p·p once more, so each
//     p² is within 3u·p², and the k squares sum to at most 1: 3u;
//     each of the k subtractions from 1 rounds by at most u, the running
//     value staying in [0, 1]: k·u. So gl and gr are within (k+3)u;
//   - nl/n·gl + nr/n·gr has weights summing to 1 and adds five roundings
//     (two quotients, two products, one sum) on a value at most 1:
//     (k+3)u + 3u;
//   - giniBound rounds two quotients, a sum and a quotient of a value in
//     [0, 1] (3u), then the subtraction from 1 (u): 4u.
//
// So |giniBound − splitGini| ≤ (k+10)u plus terms of order k·u². The
// margin (k+16)·2u doubles that, which also covers the rounding of
// giniBound − margin itself.
func pruneMargin(k int) float64 {
	return float64(k+16) * 0x1p-52
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
		b.goLeft[s] = b2u(left)
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

// partition reorders [lo,hi) of every column stably, left-going samples
// first. Each sample is written to both sides and advances one, so the
// loop has no branch to mispredict.
func (b *builder) partition(lo, hi int) {
	spill := b.spill[:hi-lo]
	for _, col := range b.cols {
		seg, k, j := col[lo:hi], 0, 0
		for _, s := range seg {
			l := int(b.goLeft[s])
			seg[k], spill[j] = s, s
			k += l
			j += 1 - l
		}
		copy(seg[k:], spill[:j])
	}
}

// b2u is 1 for true and 0 for false.
func b2u(v bool) uint8 {
	if v {
		return 1
	}
	return 0
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
