package classifier

import (
	"fmt"

	"fairbench/internal/matrix"
)

// KNN is a k-nearest-neighbors classifier using Euclidean distance. The
// paper's model-sensitivity experiment uses k = 33 (Appendix F).
type KNN struct {
	// K is the neighborhood size (default 33).
	K int

	x matrix.Design
	y []int
	w []float64
}

// NewKNN returns a kNN classifier with the paper's default k.
func NewKNN() *KNN { return &KNN{K: 33} }

// Fit memorizes the training data as a matrix.Design: x itself plus, on
// the vector path, its column-major copy, which PredictProbaInto's
// distance scan reads. The receiver's K is left untouched; queries
// resolve the default, so a zero-value model is reusable and race-free
// across cells.
func (k *KNN) Fit(x matrix.Dense, y []int, w []float64) error {
	if err := checkFitInput(x, y, w); err != nil {
		return err
	}
	k.x, k.y, k.w = matrix.NewDesign(x), y, w
	return nil
}

// neighborHeap is a max-heap on distance so the root is the farthest of
// the current k candidates and can be evicted cheaply. Its sift-up and
// sift-down are container/heap's up and down step for step, so exact
// distance ties leave the same neighbours in the same slots.
type neighborHeap []neighbor

type neighbor struct {
	dist float64
	idx  int
}

// up is container/heap's up with Less(i, j) = h[i].dist > h[j].dist.
func (h neighborHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].dist > h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// down is container/heap's down over the whole heap from the root, the
// only position a query replaces (heap.Fix's up from the root is a
// no-op).
func (h neighborHeap) down() {
	i, n := 0, len(h)
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].dist > h[j1].dist {
			j = j2 // right child
		}
		if !(h[j].dist > h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// stackNeighbors is how many neighbours PredictProba keeps on the stack;
// larger K allocates the heap once per query.
const stackNeighbors = 64

// size resolves the neighbourhood size: K, 33 when K is 0, and at most
// the training size.
func (k *KNN) size() int {
	kk := k.K
	if kk == 0 {
		kk = 33
	}
	return min(kk, k.x.Rows)
}

// PredictProba returns the (weighted) fraction of positive labels among
// the k nearest training points. It allocates nothing for K <= 64.
func (k *KNN) PredictProba(q []float64) float64 {
	n := k.x.Rows
	if n == 0 {
		return 0.5
	}
	kk := k.size()
	var buf [stackNeighbors]neighbor
	h := neighborHeap(buf[:0])
	if kk > len(buf) {
		h = make(neighborHeap, 0, kk)
	}
	for i := range n {
		d := sqDist(k.x.Row(i), q)
		if len(h) < kk {
			h = append(h, neighbor{d, i})
			h.up(len(h) - 1)
		} else if d < h[0].dist {
			h[0] = neighbor{d, i}
			h.down()
		}
	}
	return k.vote(h)
}

// PredictProbaInto implements Classifier. Each row is PredictProba's
// query, with its distances to every training row computed by one
// matrix.Design.SqDistInto scan and then offered to the heap in training
// order, so the heap sees PredictProba's sequence of distances. The
// distance buffer and the heap are allocated once per block.
func (k *KNN) PredictProbaInto(dst []float64, x matrix.Dense) {
	if x.Cols != k.x.Cols {
		predictRows(k, dst, x) // row queries fold over the shorter width
		return
	}
	if len(dst) != x.Rows {
		panic(fmt.Sprintf("classifier: PredictProbaInto into %d outputs for %d rows", len(dst), x.Rows))
	}
	kk := k.size()
	dist := make([]float64, k.x.Rows)
	h := make(neighborHeap, kk)
	for i := range dst {
		k.x.SqDistInto(dist, x.Row(i))
		for j, d := range dist[:kk] {
			h[j] = neighbor{d, j}
			h[:j+1].up(j)
		}
		for j, d := range dist[kk:] {
			if d < h[0].dist {
				h[0] = neighbor{d, kk + j}
				h.down()
			}
		}
		dst[i] = k.vote(h)
	}
}

// vote returns the weighted fraction of positive labels among h, summed
// in heap order.
func (k *KNN) vote(h neighborHeap) float64 {
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

func sqDist(a, b []float64) float64 {
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
