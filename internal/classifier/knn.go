package classifier

// KNN is a k-nearest-neighbors classifier using Euclidean distance. The
// paper's model-sensitivity experiment uses k = 33 (Appendix F).
type KNN struct {
	// K is the neighborhood size (default 33).
	K int

	x [][]float64
	y []int
	w []float64
}

// NewKNN returns a kNN classifier with the paper's default k.
func NewKNN() *KNN { return &KNN{K: 33} }

// Fit memorizes the training data. The receiver's K is left untouched;
// PredictProba resolves the default, so a zero-value model is reusable
// and race-free across cells.
func (k *KNN) Fit(x [][]float64, y []int, w []float64) error {
	if err := checkFitInput(x, y, w); err != nil {
		return err
	}
	k.x, k.y, k.w = x, y, w
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
// only position PredictProba replaces (heap.Fix's up from the root is a
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

// PredictProba returns the (weighted) fraction of positive labels among
// the k nearest training points. It allocates nothing for K <= 64.
func (k *KNN) PredictProba(q []float64) float64 {
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
	var buf [stackNeighbors]neighbor
	h := neighborHeap(buf[:0])
	if kk > len(buf) {
		h = make(neighborHeap, 0, kk)
	}
	for i, row := range k.x {
		d := sqDist(row, q)
		if len(h) < kk {
			h = append(h, neighbor{d, i})
			h.up(len(h) - 1)
		} else if d < h[0].dist {
			h[0] = neighbor{d, i}
			h.down()
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
