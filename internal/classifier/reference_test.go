package classifier

import (
	"container/heap"
	"math"
	"sort"

	"fairbench/internal/matrix"
	"fairbench/internal/rng"
)

// This file keeps the per-node-sorting tree grower, the container/heap
// kNN and the row-at-a-time MLP that the presorted grower, the typed
// heap and the MLP's batch passes replaced, verbatim apart from their
// names. The differential tests in
// differential_test.go hold the production kernels to these references
// bit for bit.

type refTree struct {
	MaxDepth      int
	MinLeaf       float64
	FeatureSubset int
	Seed          int64

	root *refNode
}

type refNode struct {
	feature     int
	threshold   float64
	left, right *refNode
	prob        float64 // P(Y=1) at a leaf
	leaf        bool
}

func (t *refTree) Fit(x [][]float64, y []int, w []float64) error {
	work := *t
	if work.MaxDepth == 0 {
		work.MaxDepth = 100
	}
	if work.MinLeaf == 0 {
		work.MinLeaf = 2
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	g := rng.New(work.Seed)
	t.root = work.build(x, y, w, idx, 0, g)
	return nil
}

func refWeightOf(w []float64, i int) float64 {
	if w == nil {
		return 1
	}
	return w[i]
}

func (t *refTree) build(x [][]float64, y []int, w []float64, idx []int, depth int, g *rng.RNG) *refNode {
	var tot, pos float64
	for _, i := range idx {
		wi := refWeightOf(w, i)
		tot += wi
		if y[i] == 1 {
			pos += wi
		}
	}
	node := &refNode{leaf: true, prob: 0.5}
	if tot > 0 {
		node.prob = pos / tot
	}
	if depth >= t.MaxDepth || tot < 2*t.MinLeaf || pos == 0 || pos == tot {
		return node
	}
	d := len(x[0])
	features := make([]int, d)
	for j := range features {
		features[j] = j
	}
	if t.FeatureSubset > 0 && t.FeatureSubset < d {
		g.Shuffle(d, func(a, b int) { features[a], features[b] = features[b], features[a] })
		features = features[:t.FeatureSubset]
	}

	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0
	parentImp := refGini(pos, tot)
	type fv struct {
		v   float64
		y   int
		wgt float64
	}
	for _, f := range features {
		vals := make([]fv, len(idx))
		for k, i := range idx {
			vals[k] = fv{x[i][f], y[i], refWeightOf(w, i)}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		var lt, lp float64
		for k := 0; k < len(vals)-1; k++ {
			lt += vals[k].wgt
			if vals[k].y == 1 {
				lp += vals[k].wgt
			}
			if vals[k].v == vals[k+1].v {
				continue
			}
			rt, rp := tot-lt, pos-lp
			if lt < t.MinLeaf || rt < t.MinLeaf {
				continue
			}
			gain := parentImp - (lt/tot)*refGini(lp, lt) - (rt/tot)*refGini(rp, rt)
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFeat = f
				bestThresh = (vals[k].v + vals[k+1].v) / 2
			}
		}
	}
	if bestFeat < 0 {
		return node
	}
	var li, ri []int
	for _, i := range idx {
		if x[i][bestFeat] <= bestThresh {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return node
	}
	node.leaf = false
	node.feature = bestFeat
	node.threshold = bestThresh
	node.left = t.build(x, y, w, li, depth+1, g)
	node.right = t.build(x, y, w, ri, depth+1, g)
	return node
}

func refGini(pos, tot float64) float64 {
	if tot <= 0 {
		return 0
	}
	p := pos / tot
	return 2 * p * (1 - p)
}

func (t *refTree) PredictProba(x []float64) float64 {
	n := t.root
	if n == nil {
		return 0.5
	}
	for !n.leaf {
		if n.feature < len(x) && x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.prob
}

type refForest struct {
	Trees    int
	MaxDepth int
	Seed     int64

	ensemble []*refTree
}

func (rf *refForest) Fit(x [][]float64, y []int, w []float64) error {
	trees, maxDepth := rf.Trees, rf.MaxDepth
	if trees == 0 {
		trees = 40
	}
	if maxDepth == 0 {
		maxDepth = 100
	}
	n := len(x)
	d := len(x[0])
	sub := int(math.Ceil(math.Sqrt(float64(d))))
	g := rng.New(rf.Seed)
	rf.ensemble = make([]*refTree, trees)
	for t := 0; t < trees; t++ {
		bx := make([][]float64, n)
		by := make([]int, n)
		var bw []float64
		if w != nil {
			bw = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			j := g.Intn(n)
			bx[i], by[i] = x[j], y[j]
			if w != nil {
				bw[i] = w[j]
			}
		}
		tree := &refTree{MaxDepth: maxDepth, MinLeaf: 2, FeatureSubset: sub, Seed: g.Int63()}
		if err := tree.Fit(bx, by, bw); err != nil {
			return err
		}
		rf.ensemble[t] = tree
	}
	return nil
}

func (rf *refForest) PredictProba(x []float64) float64 {
	if len(rf.ensemble) == 0 {
		return 0.5
	}
	var s float64
	for _, t := range rf.ensemble {
		s += t.PredictProba(x)
	}
	return s / float64(len(rf.ensemble))
}

type refKNN struct {
	K int

	x [][]float64
	y []int
	w []float64
}

func (k *refKNN) Fit(x [][]float64, y []int, w []float64) error {
	k.x, k.y, k.w = x, y, w
	return nil
}

type refNeighborHeap []refNeighbor

type refNeighbor struct {
	dist float64
	idx  int
}

func (h refNeighborHeap) Len() int            { return len(h) }
func (h refNeighborHeap) Less(i, j int) bool  { return h[i].dist > h[j].dist }
func (h refNeighborHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refNeighborHeap) Push(x interface{}) { *h = append(*h, x.(refNeighbor)) }
func (h *refNeighborHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func (k *refKNN) PredictProba(q []float64) float64 {
	if len(k.x) == 0 {
		return 0.5
	}
	kk := k.K
	if kk == 0 {
		kk = 33
	}
	if kk > len(k.x) {
		kk = len(k.x)
	}
	h := make(refNeighborHeap, 0, kk)
	for i, row := range k.x {
		d := refSqDist(row, q)
		if len(h) < kk {
			heap.Push(&h, refNeighbor{d, i})
		} else if d < h[0].dist {
			h[0] = refNeighbor{d, i}
			heap.Fix(&h, 0)
		}
	}
	var pos, tot float64
	for _, nb := range h {
		wi := 1.0
		if k.w != nil {
			wi = k.w[nb.idx]
		}
		tot += wi
		if k.y[nb.idx] == 1 {
			pos += wi
		}
	}
	if tot == 0 {
		return 0.5
	}
	return pos / tot
}

func refSqDist(a, b []float64) float64 {
	var s float64
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

type refMLP struct {
	// Hidden is the hidden-layer width (default 20).
	Hidden int
	// Alpha is the L2 penalty (default 0.01).
	Alpha float64
	// Epochs is the number of training passes (default 60).
	Epochs int
	// Step is the SGD learning rate (default 0.05).
	Step float64
	// Batch is the mini-batch size (default 32).
	Batch int
	// Seed drives initialization and shuffling.
	Seed int64

	hidden int         // resolved width the fitted weights use
	w1     [][]float64 // hidden x (d+1), last column bias; views into w1m
	w1m    *matrix.Dense
	w2     []float64 // hidden+1, last entry bias
}

func (m *refMLP) Fit(x [][]float64, y []int, w []float64) error {
	hidden, epochs, step, batch := m.Hidden, m.Epochs, m.Step, m.Batch
	if hidden == 0 {
		hidden = 20
	}
	if epochs == 0 {
		epochs = 60
	}
	if step == 0 {
		step = 0.05
	}
	if batch == 0 {
		batch = 32
	}
	n, d := len(x), len(x[0])
	g := rng.New(m.Seed)
	scale := 1 / math.Sqrt(float64(d)+1)
	m.hidden = hidden
	m.w1m = matrix.NewDense(hidden, d+1)
	m.w1 = m.w1m.RowsView()
	for h := range m.w1 {
		for j := range m.w1[h] {
			m.w1[h][j] = g.Normal(0, scale)
		}
	}
	m.w2 = make([]float64, hidden+1)
	for h := range m.w2 {
		m.w2[h] = g.Normal(0, 1/math.Sqrt(float64(hidden)+1))
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	hid := make([]float64, hidden)
	// Per-batch gradient accumulators, allocated once and zeroed between
	// batches.
	g1m := matrix.NewDense(hidden, d+1)
	g1 := g1m.RowsView()
	g2 := make([]float64, hidden+1)
	for epoch := 0; epoch < epochs; epoch++ {
		g.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
		for start := 0; start < n; start += batch {
			end := start + batch
			if end > n {
				end = n
			}
			for i := range g1m.Data {
				g1m.Data[i] = 0
			}
			for i := range g2 {
				g2[i] = 0
			}
			var bw float64
			for _, i := range order[start:end] {
				wi := weightOf(w, i)
				bw += wi
				xi := x[i]
				// Forward. Reslicing each weight row to the input length
				// proves the inner indexing in bounds.
				for h, w1h := range m.w1 {
					z := w1h[d]
					wz := w1h[:len(xi)]
					for j, v := range xi {
						z += wz[j] * v
					}
					hid[h] = math.Tanh(z)
				}
				out := m.w2[hidden]
				for h, hv := range hid {
					out += m.w2[h] * hv
				}
				p := matrix.Sigmoid(out)
				// Backward.
				dOut := wi * (p - float64(y[i]))
				for h, hv := range hid {
					g2[h] += dOut * hv
					dHid := dOut * m.w2[h] * (1 - hv*hv)
					g1h := g1[h]
					gz := g1h[:len(xi)]
					for j, v := range xi {
						gz[j] += dHid * v
					}
					g1h[d] += dHid
				}
				g2[hidden] += dOut
			}
			if bw == 0 {
				continue
			}
			lr := step
			for h := 0; h < hidden; h++ {
				for j := 0; j <= d; j++ {
					m.w1[h][j] -= lr * (g1[h][j]/bw + m.Alpha*m.w1[h][j])
				}
				m.w2[h] -= lr * (g2[h]/bw + m.Alpha*m.w2[h])
			}
			m.w2[hidden] -= lr * g2[hidden] / bw
		}
	}
	return nil
}

func (m *refMLP) PredictProba(x []float64) float64 {
	if m.w1 == nil {
		return 0.5
	}
	d := len(m.w1[0]) - 1
	out := m.w2[m.hidden]
	for h := 0; h < m.hidden; h++ {
		z := m.w1[h][d]
		for j := 0; j < d && j < len(x); j++ {
			z += m.w1[h][j] * x[j]
		}
		out += m.w2[h] * math.Tanh(z)
	}
	return matrix.Sigmoid(out)
}
