package classifier

import (
	"cmp"
	"math"
	"slices"

	"fairbench/internal/matrix"
	"fairbench/internal/rng"
)

// DecisionTree is a CART-style binary classification tree with weighted
// Gini impurity splits on numeric thresholds. It is both a standalone
// classifier and the base learner of RandomForest.
//
// Fit grows the tree on presorted attribute lists (SPRINT; Shafer,
// Agrawal and Mehta, VLDB 1996): each feature's rows are sorted once, and
// a split only stably partitions its node's range of every list, so no
// node sorts or allocates. On weighted input, tied feature values'
// weights are summed in presorted order (by row), not in the order a
// per-node pdqsort (sort.Slice) leaves them in, so a split's gain can
// differ in its last bits from such a grower's. Unweighted fits, and
// weights whose sums are exact in any order (dyadic weights), do not
// depend on that order.
type DecisionTree struct {
	// MaxDepth bounds tree depth (default 100, matching the paper's
	// forest configuration).
	MaxDepth int
	// MinLeaf is the minimum weighted count in a leaf (default 2).
	MinLeaf float64
	// FeatureSubset, when > 0, restricts each split to a random subset of
	// that many features (used by the forest).
	FeatureSubset int
	// Seed drives feature subsampling.
	Seed int64

	nodes []treeNode // nodes[0] is the root; empty before Fit
}

type treeNode struct {
	feature     int
	threshold   float64
	left, right int32   // indices into the tree's nodes
	prob        float64 // P(Y=1) at a leaf
	leaf        bool
}

// Fit builds the tree. Defaults resolve into locals (the caller's fields
// are never written), so a zero-value tree is reusable and race-free
// across cells.
func (t *DecisionTree) Fit(x matrix.Dense, y []int, w []float64) error {
	if err := checkFitInput(x, y, w); err != nil {
		return err
	}
	maxDepth, minLeaf := t.MaxDepth, t.MinLeaf
	if maxDepth == 0 {
		maxDepth = 100
	}
	if minLeaf == 0 {
		minLeaf = 2
	}
	gr := newGrower(x, y, w, maxDepth, minLeaf, t.FeatureSubset)
	for r := range gr.src {
		gr.src[r] = int32(r)
	}
	t.nodes = gr.grow(t.Seed)
	return nil
}

func weightOf(w []float64, i int) float64 {
	if w == nil {
		return 1
	}
	return w[i]
}

func gini(pos, tot float64) float64 {
	if tot <= 0 {
		return 0
	}
	p := pos / tot
	return 2 * p * (1 - p)
}

// PredictProba walks the tree to a leaf probability.
func (t *DecisionTree) PredictProba(x []float64) float64 {
	if len(t.nodes) == 0 {
		return 0.5
	}
	n := &t.nodes[0]
	for !n.leaf {
		if n.feature < len(x) && x[n.feature] <= n.threshold {
			n = &t.nodes[n.left]
		} else {
			n = &t.nodes[n.right]
		}
	}
	return n.prob
}

// PredictProbaInto implements Classifier.
func (t *DecisionTree) PredictProbaInto(dst []float64, x matrix.Dense) {
	predictRows(t, dst, x)
}

// Depth returns the depth of the fitted tree (0 for a stump/leaf).
func (t *DecisionTree) Depth() int {
	if len(t.nodes) == 0 {
		return 0
	}
	return t.depthOf(0)
}

func (t *DecisionTree) depthOf(i int32) int {
	n := &t.nodes[i]
	if n.leaf {
		return 0
	}
	return 1 + max(t.depthOf(n.left), t.depthOf(n.right))
}

// RandomForest is a bagging ensemble of decision trees with per-split
// feature subsampling. The paper's configuration is 40 trees of maximum
// depth 100 (Appendix F).
//
// Fit sorts each feature once per forest; every tree derives its
// bootstrap sample's sorted lists from that order in one counting pass
// and then grows as DecisionTree does. On weighted input, tied values'
// weights are likewise summed in presorted order, not pdqsort's.
type RandomForest struct {
	// Trees is the ensemble size (default 40).
	Trees int
	// MaxDepth bounds each tree (default 100).
	MaxDepth int
	// Seed drives bootstrap sampling.
	Seed int64

	ensemble []DecisionTree
}

// NewForest returns a random forest with the paper's defaults.
func NewForest() *RandomForest { return &RandomForest{Trees: 40, MaxDepth: 100, Seed: 11} }

// Fit trains the ensemble on bootstrap resamples. Defaults resolve into
// locals; the receiver's configuration fields are never written.
func (rf *RandomForest) Fit(x matrix.Dense, y []int, w []float64) error {
	if err := checkFitInput(x, y, w); err != nil {
		return err
	}
	trees, maxDepth := rf.Trees, rf.MaxDepth
	if trees == 0 {
		trees = 40
	}
	if maxDepth == 0 {
		maxDepth = 100
	}
	n := x.Rows
	sub := int(math.Ceil(math.Sqrt(float64(x.Cols))))
	gr := newGrower(x, y, w, maxDepth, 2, sub)
	g := rng.New(rf.Seed)
	rf.ensemble = make([]DecisionTree, trees)
	for t := range rf.ensemble {
		for r := range gr.src {
			gr.src[r] = int32(g.Intn(n))
		}
		tree := DecisionTree{MaxDepth: maxDepth, MinLeaf: 2, FeatureSubset: sub, Seed: g.Int63()}
		tree.nodes = gr.grow(tree.Seed)
		rf.ensemble[t] = tree
	}
	return nil
}

// PredictProba averages the trees' leaf probabilities.
func (rf *RandomForest) PredictProba(x []float64) float64 {
	if len(rf.ensemble) == 0 {
		return 0.5
	}
	var s float64
	for i := range rf.ensemble {
		s += rf.ensemble[i].PredictProba(x)
	}
	return s / float64(len(rf.ensemble))
}

// PredictProbaInto implements Classifier.
func (rf *RandomForest) PredictProbaInto(dst []float64, x matrix.Dense) {
	predictRows(rf, dst, x)
}

// grower grows trees on one training set. A tree's rows are the
// positions 0..n-1 of its sample, row r being source row src[r]: the
// identity for a lone tree, a bootstrap draw for a forest member. Every
// list of rows below is one n-long column per feature, feature f at
// [f*n, (f+1)*n), and a node owns the same contiguous range of each.
type grower struct {
	n, d     int
	maxDepth int
	minLeaf  float64
	subset   int
	y        []int
	w        []float64 // nil: unit weights

	// Per training set: the columns of x, and each column's source rows
	// sorted by (value, row).
	xcol  []float64
	order []int32

	// Per tree: the sample, its columns, weights and positive weights,
	// its rows sorted by each feature, and its rows in ascending order.
	src   []int32
	col   []float64
	wt    []float64
	wpos  []float64 // wt[r] if the row is positive, else 0
	lists []int32
	rows  []int32

	// Scratch: how often the sample drew each source row, the split side
	// of each row, a row buffer, and the feature order of one split.
	mult    []int32
	goLeft  []uint8 // 1: the row goes to the left child
	tmp     []int32
	feats   []int
	shuffle func(a, b int)

	nodes []treeNode
	g     *rng.RNG
}

// newGrower copies x into columns and presorts every column once.
func newGrower(x matrix.Dense, y []int, w []float64, maxDepth int, minLeaf float64, subset int) *grower {
	n, d := x.Rows, x.Cols
	gr := &grower{
		n: n, d: d, maxDepth: maxDepth, minLeaf: minLeaf, subset: subset, y: y, w: w,
		xcol:   make([]float64, n*d),
		order:  make([]int32, n*d),
		src:    make([]int32, n),
		col:    make([]float64, n*d),
		wt:     make([]float64, n),
		wpos:   make([]float64, n),
		lists:  make([]int32, n*d),
		rows:   make([]int32, n),
		mult:   make([]int32, n),
		goLeft: make([]uint8, n),
		tmp:    make([]int32, n),
		feats:  make([]int, d),
	}
	gr.shuffle = func(a, b int) { gr.feats[a], gr.feats[b] = gr.feats[b], gr.feats[a] }
	for j := range n {
		for f, v := range x.Row(j) {
			gr.xcol[f*n+j] = v
		}
	}
	for f := 0; f < d; f++ {
		xc, o := gr.xcol[f*n:(f+1)*n], gr.order[f*n:(f+1)*n]
		for j := range o {
			o[j] = int32(j)
		}
		slices.SortFunc(o, func(a, b int32) int {
			if c := cmp.Compare(xc[a], xc[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}
	return gr
}

// grow builds one tree over the sample in gr.src, drawing feature
// subsets from a generator seeded with seed, and returns a copy of its
// nodes sized to fit; gr.nodes is reused as the next tree's buffer.
func (gr *grower) grow(seed int64) []treeNode {
	gr.loadSample()
	gr.g = rng.New(seed)
	gr.nodes = gr.nodes[:0]
	var tot, pos float64
	for r := range gr.n {
		tot += gr.wt[r]
		pos += gr.wpos[r]
	}
	gr.split(0, gr.n, 0, tot, pos)
	return slices.Clone(gr.nodes)
}

// loadSample derives the sample's per-row data and its sorted lists from
// the presorted source order by counting, without sorting: a pass over
// the source order gives each source row the offset of its first sample
// row, and a pass over the sample in ascending row order places each row.
func (gr *grower) loadSample() {
	n, src, mult, next := gr.n, gr.src, gr.mult, gr.tmp
	clear(mult)
	for r, j := range src {
		mult[j]++
		gr.rows[r] = int32(r)
		wi := weightOf(gr.w, int(j))
		gr.wt[r] = wi
		gr.wpos[r] = 0
		if gr.y[j] == 1 {
			gr.wpos[r] = wi
		}
	}
	for f := 0; f < gr.d; f++ {
		xc, col := gr.xcol[f*n:(f+1)*n], gr.col[f*n:(f+1)*n]
		for r, j := range src {
			col[r] = xc[j]
		}
		var at int32
		for _, j := range gr.order[f*n : (f+1)*n] {
			next[j] = at
			at += mult[j]
		}
		list := gr.lists[f*n : (f+1)*n]
		for r, j := range src {
			list[next[j]] = int32(r)
			next[j]++
		}
	}
}

// stops reports the stop rule: a node at depth with total weight tot
// and positive weight pos is a leaf.
func (gr *grower) stops(depth int, tot, pos float64) bool {
	return depth >= gr.maxDepth || tot < 2*gr.minLeaf || pos == 0 || pos == tot
}

// split appends the node over the sample rows in [lo, hi) of every list,
// whose weight and positive weight, summed in ascending row order, are
// tot and pos. Unless the node is a leaf, it partitions the range and
// grows the left child before the right. It returns the node's index.
func (gr *grower) split(lo, hi, depth int, tot, pos float64) int32 {
	idx := int32(len(gr.nodes))
	gr.nodes = append(gr.nodes, treeNode{leaf: true, prob: 0.5})
	if tot > 0 {
		gr.nodes[idx].prob = pos / tot
	}
	if gr.stops(depth, tot, pos) {
		return idx
	}
	feats := gr.feats
	for f := range feats {
		feats[f] = f
	}
	if gr.subset > 0 && gr.subset < gr.d {
		gr.g.Shuffle(gr.d, gr.shuffle)
		feats = feats[:gr.subset]
	}

	n, wt, wpos, minLeaf := gr.n, gr.wt, gr.wpos, gr.minLeaf
	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0
	parentImp := gini(pos, tot)
	for _, f := range feats {
		col, list := gr.col[f*n:(f+1)*n], gr.lists[f*n+lo:f*n+hi]
		var lt, lp float64
		next := col[list[0]]
		for k := 1; k < len(list); k++ {
			r := list[k-1]
			lt += wt[r]
			lp += wpos[r]
			v := next
			next = col[list[k]]
			if v == next {
				continue
			}
			rt, rp := tot-lt, pos-lp
			if lt < minLeaf || rt < minLeaf {
				continue
			}
			gain := parentImp - (lt/tot)*gini(lp, lt) - (rt/tot)*gini(rp, rt)
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFeat = f
				bestThresh = (v + next) / 2
			}
		}
	}
	if bestFeat < 0 {
		return idx
	}
	// Mark each row's side, summing each child's weights in ascending
	// row order, the order its own split would sum them in.
	col, rows, goLeft := gr.col[bestFeat*n:(bestFeat+1)*n], gr.rows[lo:hi], gr.goLeft
	var lt, lp, rt, rp float64
	nl := 0
	for _, r := range rows {
		if col[r] <= bestThresh {
			goLeft[r] = 1
			lt += wt[r]
			lp += wpos[r]
			nl++
		} else {
			goLeft[r] = 0
			rt += wt[r]
			rp += wpos[r]
		}
	}
	if nl == 0 || nl == len(rows) {
		return idx
	}
	// Two leaf children read nothing from the lists.
	if !gr.stops(depth+1, lt, lp) || !gr.stops(depth+1, rt, rp) {
		gr.partition(rows)
		for f := 0; f < gr.d; f++ {
			gr.partition(gr.lists[f*n+lo : f*n+hi])
		}
	}
	left := gr.split(lo, lo+nl, depth+1, lt, lp)
	right := gr.split(lo+nl, hi, depth+1, rt, rp)
	gr.nodes[idx] = treeNode{feature: bestFeat, threshold: bestThresh, left: left, right: right}
	return idx
}

// partition stably moves the rows marked goLeft to the front of list.
// Every row is written to both halves and only the matching cursor
// advances, so the loop has no data-dependent branch.
func (gr *grower) partition(list []int32) {
	goLeft, tmp := gr.goLeft, gr.tmp[:len(list)]
	nl, nr := 0, 0
	for _, r := range list {
		l := int(goLeft[r])
		list[nl] = r
		tmp[nr] = r
		nl += l
		nr += 1 - l
	}
	copy(list[nl:], tmp[:nr])
}
