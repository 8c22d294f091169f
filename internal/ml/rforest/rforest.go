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

// Table is a feature matrix with every column sorted once, so forests
// trained on different subsets of its rows, such as the training folds
// of a cross-validation, share one sort.
type Table struct {
	xt     [][]float64 // xt[f][r] = X[r][f]
	sorted [][]int32   // sorted[f]: every row, ascending by xt[f]
	rank   [][]int32   // rank[f][r]: the position of row r in sorted[f]
}

// NewTable checks that X is a non-empty rectangular matrix of finite
// values and sorts each of its columns.
func NewTable(X [][]float64) (*Table, error) {
	if len(X) == 0 {
		return nil, errors.New("rforest: no samples")
	}
	n, nFeat := len(X), len(X[0])
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
	t := &Table{
		xt:     make([][]float64, nFeat),
		sorted: make([][]int32, nFeat),
		rank:   make([][]int32, nFeat),
	}
	xt, sorted, rank := make([]float64, nFeat*n), make([]int32, nFeat*n), make([]int32, nFeat*n)
	// Sort each column as integers, without a comparator: the value's
	// order key with the row index written over its low bits.
	mask := uint64(1)<<bits.Len(uint(n-1)) - 1
	keys := make([]uint64, n)
	for f := range t.xt {
		xf, order, rf := xt[f*n:(f+1)*n], sorted[f*n:(f+1)*n], rank[f*n:(f+1)*n]
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
			rf[k&mask] = int32(i)
		}
		t.xt[f], t.sorted[f], t.rank[f] = xf, order, rf
	}
	return t, nil
}

// orderKey maps a finite v to an integer that orders as v does, putting
// -0 before the equal +0; NewTable has rejected NaN.
func orderKey(v float64) uint64 {
	u := math.Float64bits(v)
	if u>>63 != 0 {
		return ^u
	}
	return u | 1<<63
}

// Train fits a forest on samples X with labels Y in [0, classes).
func Train(cfg Config, X [][]float64, Y []int, classes int) (*Forest, error) {
	t, err := NewTable(X)
	if err != nil {
		return nil, err
	}
	rows := make([]int, len(X))
	for i := range rows {
		rows[i] = i
	}
	return t.Train(cfg, rows, Y, classes)
}

// Train fits a forest on the table's rows listed in rows, each at most
// once. Y labels every row of the table with a class in [0, classes).
// The forest is the one Train grows on those rows copied out in the
// order listed, with the same draws from cfg.Rand.
func (t *Table) Train(cfg Config, rows []int, Y []int, classes int) (*Forest, error) {
	return t.train(cfg, rows, Y, classes, pruneMargin)
}

// train is Table.Train with the split search's pruning margin as a
// parameter, so tests can check that a smaller margin changes the forest.
func (t *Table) train(cfg Config, rows []int, Y []int, classes int, margin func(present int) float64) (*Forest, error) {
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
	n, nFeat := len(t.rank[0]), len(t.xt)
	if len(Y) != n {
		return nil, fmt.Errorf("rforest: %d samples vs %d labels", n, len(Y))
	}
	if classes < 2 {
		return nil, errors.New("rforest: need at least two classes")
	}
	for i, y := range Y {
		if y < 0 || y >= classes {
			return nil, fmt.Errorf("rforest: label %d of sample %d outside [0,%d)", y, i, classes)
		}
	}
	if len(rows) == 0 {
		return nil, errors.New("rforest: no training rows")
	}
	// A row listed twice would set one rank bit for two samples.
	seen := make([]bool, n)
	for _, r := range rows {
		if r < 0 || r >= n {
			return nil, fmt.Errorf("rforest: row %d outside [0,%d)", r, n)
		}
		if seen[r] {
			return nil, fmt.Errorf("rforest: row %d listed twice", r)
		}
		seen[r] = true
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
	b := newBuilder(cfg, t, rows, Y, classes)
	b.margin = margin
	for i := range f.trees {
		f.trees[i] = b.tree()
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

// builder grows the trees of one Table.Train call. Each tree keeps one
// list of its drawn rows; each node owns a range of it, and a split
// partitions that range stably. A node orders only the features it
// draws: it sets its rows' ranks in a bitset and reads them back in
// ascending order through the table's sorted column. All scratch is
// reused across nodes and trees.
//
// The forest is the one a per-node sort over all classes would grow, bit
// for bit: a split depends only on the label counts at distinct-value
// boundaries, which neither the order of tied values nor the order of
// the row list reaches, and a class absent from a node adds 0 to its
// Gini sum.
type builder struct {
	cfg    Config
	t      *Table
	rows   []int // the training rows; a bootstrap draws len(rows) of them
	y      []int
	margin func(present int) float64

	// Per tree.
	weight    []float64 // bootstrap multiplicity per table row
	samples   []int32   // the drawn rows; each node owns one [lo,hi)
	nodes     []node
	leafProba []float64 // leaf class distributions, in node order

	// Per node, dead once the node's split is chosen.
	hist, left, right []float64
	present           []int // classes with a nonzero count, ascending
	feats             []int
	set               []uint64 // rank bitset, empty between calls to column
	order             []int32  // column's output
	spill             []int32

	importance []float64 // accumulated impurity decrease per feature
}

func newBuilder(cfg Config, t *Table, rows []int, Y []int, classes int) *builder {
	n, m, nFeat := len(Y), len(rows), len(t.xt)
	return &builder{
		cfg:        cfg,
		t:          t,
		rows:       rows,
		y:          Y,
		weight:     make([]float64, n),
		samples:    make([]int32, m),
		hist:       make([]float64, classes),
		left:       make([]float64, classes),
		right:      make([]float64, classes),
		feats:      make([]int, nFeat),
		set:        make([]uint64, (n+63)/64),
		order:      make([]int32, m),
		spill:      make([]int32, m),
		importance: make([]float64, nFeat),
	}
}

// tree draws a bootstrap sample and grows one tree on it.
func (b *builder) tree() tree {
	clear(b.weight)
	for range b.rows {
		b.weight[b.rows[b.cfg.Rand.Intn(len(b.rows))]]++
	}
	m := 0
	for _, r := range b.rows {
		if b.weight[r] > 0 {
			b.samples[m] = int32(r)
			m++
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

// grow builds the subtree over the samples in [lo,hi) and returns its
// node index.
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
	for _, s := range b.samples[lo:hi] {
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
		b.importance[feat] += n / float64(len(b.rows)) * decrease
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
// lowest weighted Gini impurity, ordering each feature's samples with
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
		col, xf := b.column(f, lo, hi), b.t.xt[f]
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

// column returns the samples in [lo,hi) ascending by feature f, in the
// order of the table's sorted[f]. It sets each sample's rank in b.set,
// then reads the set bits back in ascending order, scanning only the
// words between the lowest and the highest rank and clearing each one,
// so b.set is empty again for the next call.
func (b *builder) column(f, lo, hi int) []int32 {
	rank, set := b.t.rank[f], b.set
	first, last := int32(len(rank)), int32(0)
	for _, s := range b.samples[lo:hi] {
		r := rank[s]
		set[r>>6] |= 1 << (r & 63)
		first, last = min(first, r), max(last, r)
	}
	order, sorted, i := b.order[:hi-lo], b.t.sorted[f], 0
	for w := first >> 6; w <= last>>6; w++ {
		for word := set[w]; word != 0; word &= word - 1 {
			order[i] = sorted[w<<6|int32(bits.TrailingZeros64(word))]
			i++
		}
		set[w] = 0
	}
	return order
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

// divide sends each sample in [lo,hi) to a side of thr on feat,
// recording the children's histograms in b.left and b.right, and
// partitions the range stably, left-going samples first. It returns the
// left child's bootstrap count and its number of distinct samples. The
// side comes from the comparison, not from the boundary the threshold
// was chosen at: the midpoint of two adjacent floats can round onto the
// upper one.
func (b *builder) divide(lo, hi, feat int, thr float64) (nl float64, ml int) {
	clear(b.left)
	clear(b.right)
	xf, seg, j := b.t.xt[feat], b.samples[lo:hi], 0
	for _, s := range seg {
		w, c := b.weight[s], b.y[s]
		if xf[s] <= thr {
			b.left[c] += w
			nl += w
			seg[ml] = s
			ml++
		} else {
			b.right[c] += w
			b.spill[j] = s
			j++
		}
	}
	copy(seg[ml:], b.spill[:j])
	return nl, ml
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
