package rforest

// The reference builder: the straightforward tree grower Train used
// before presorted columns, present-class Gini and reused scratch. It
// sorts every sampled feature at every node and evaluates Gini over all
// classes. Kept verbatim (types renamed) as the oracle the equivalence
// properties in equiv_test.go check Train against: same nodes, same
// threshold and probability bits, same importances, same random-stream
// consumption.

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// trainReference fits a forest exactly as the reference builder does.
func trainReference(cfg Config, X [][]float64, Y []int, classes int) (*Forest, error) {
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
	b := &refBuilder{cfg: cfg, X: X, Y: Y, classes: classes,
		importance: make([]float64, nFeat)}
	for t := range f.trees {
		// Bootstrap: sample len(X) indices with replacement.
		idx := make([]int, len(X))
		for i := range idx {
			idx[i] = cfg.Rand.Intn(len(X))
		}
		b.nodes = nil
		b.total = len(idx)
		b.grow(idx, 0)
		f.trees[t] = tree{nodes: b.nodes}
		b.nodes = nil
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

// refBuilder grows one tree.
type refBuilder struct {
	cfg        Config
	X          [][]float64
	Y          []int
	classes    int
	nodes      []node
	total      int       // bootstrap sample size, for importance weights
	importance []float64 // accumulated impurity decrease per feature
}

// grow builds the subtree over the given sample indices and returns its
// node index.
func (b *refBuilder) grow(idx []int, depth int) int32 {
	hist := make([]float64, b.classes)
	for _, i := range idx {
		hist[b.Y[i]]++
	}
	pure := 0
	for _, c := range hist {
		if c > 0 {
			pure++
		}
	}
	id := int32(len(b.nodes))
	b.nodes = append(b.nodes, node{feature: -1})
	if pure <= 1 || depth >= b.cfg.MaxDepth || len(idx) < 2*b.cfg.MinLeaf {
		b.leaf(id, hist, len(idx))
		return id
	}
	feat, thr, ok := b.bestSplit(idx, hist)
	if !ok {
		b.leaf(id, hist, len(idx))
		return id
	}
	var left, right []int
	for _, i := range idx {
		if b.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.cfg.MinLeaf || len(right) < b.cfg.MinLeaf {
		b.leaf(id, hist, len(idx))
		return id
	}
	b.accumulateImportance(feat, hist, left, right)
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	b.nodes[id].feature = feat
	b.nodes[id].threshold = thr
	b.nodes[id].left = l
	b.nodes[id].right = r
	return id
}

// accumulateImportance records the split's weighted Gini decrease.
func (b *refBuilder) accumulateImportance(feat int, hist []float64, left, right []int) {
	n := float64(len(left) + len(right))
	lh := make([]float64, b.classes)
	rh := make([]float64, b.classes)
	for _, i := range left {
		lh[b.Y[i]]++
	}
	for _, i := range right {
		rh[b.Y[i]]++
	}
	nl, nr := float64(len(left)), float64(len(right))
	decrease := gini(hist, n) - nl/n*gini(lh, nl) - nr/n*gini(rh, nr)
	if decrease > 0 {
		b.importance[feat] += n / float64(b.total) * decrease
	}
}

func (b *refBuilder) leaf(id int32, hist []float64, n int) {
	proba := make([]float64, len(hist))
	if n > 0 {
		for i, c := range hist {
			proba[i] = c / float64(n)
		}
	}
	b.nodes[id].proba = proba
}

// bestSplit searches a random feature subset for the threshold with the
// lowest weighted Gini impurity.
func (b *refBuilder) bestSplit(idx []int, hist []float64) (feat int, thr float64, ok bool) {
	n := float64(len(idx))
	bestGini := math.Inf(1)

	// Sample cfg.FeaturesPerSplit distinct features (partial shuffle).
	feats := b.cfg.Rand.Perm(len(b.X[0]))[:b.cfg.FeaturesPerSplit]

	type pair struct {
		v float64
		y int
	}
	pairs := make([]pair, len(idx))
	leftHist := make([]float64, b.classes)
	rightHist := make([]float64, b.classes)

	for _, f := range feats {
		for i, s := range idx {
			pairs[i] = pair{v: b.X[s][f], y: b.Y[s]}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
		for i := range leftHist {
			leftHist[i] = 0
			rightHist[i] = hist[i]
		}
		// Sweep split positions between distinct values.
		for i := 0; i < len(pairs)-1; i++ {
			leftHist[pairs[i].y]++
			rightHist[pairs[i].y]--
			if pairs[i].v == pairs[i+1].v {
				continue
			}
			nl := float64(i + 1)
			nr := n - nl
			g := nl/n*gini(leftHist, nl) + nr/n*gini(rightHist, nr)
			if g < bestGini {
				bestGini = g
				feat = f
				thr = (pairs[i].v + pairs[i+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}
