package classifier

import (
	"math"

	"fairbench/internal/matrix"
	"fairbench/internal/rng"
)

// MLP is a one-hidden-layer perceptron with tanh hidden units and a
// sigmoid output, trained by mini-batch SGD on the weighted log loss with
// L2 regularization — the paper's fifth model family (20 hidden neurons,
// alpha = 0.01, Appendix F).
//
// The weights do not change until a mini-batch's update, so each batch
// runs as batch passes over a flat workspace (mlpBatch, flatfit.go)
// instead of row by row: the hidden z-pass, one TanhInto over the
// batch × hidden block, the output fold, SigmoidInto and the backward
// accumulations, on the matrix package's vector kernels where the CPU
// has them. Every accumulator keeps the per-row loop's fold order, so
// the weights are bit-identical to it. The workspace is allocated once
// per Fit, so the training loop allocates nothing per batch or per
// epoch. Defaults resolve into locals, so a zero-value model is reusable
// and race-free across cells.
type MLP struct {
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

	hidden int // resolved width the fitted weights use
	// w1 is the hidden layer, stored transposed: (d+1) × hidden, row j
	// holding feature j's weight into every hidden unit and row d the
	// biases, so the batch passes run one hidden unit per lane.
	w1 []float64
	w2 []float64 // hidden+1, last entry bias
}

// NewMLP returns an MLP with the paper's defaults.
func NewMLP() *MLP {
	return &MLP{Hidden: 20, Alpha: 0.01, Epochs: 60, Step: 0.05, Batch: 32, Seed: 3}
}

// Fit trains the network.
func (m *MLP) Fit(x matrix.Dense, y []int, w []float64) error {
	if err := checkFitInput(x, y, w); err != nil {
		return err
	}
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
	n, d := x.Rows, x.Cols
	g := rng.New(m.Seed)
	scale := 1 / math.Sqrt(float64(d)+1)
	m.hidden = hidden
	m.w1 = make([]float64, (d+1)*hidden)
	for h := 0; h < hidden; h++ {
		for j := 0; j <= d; j++ {
			m.w1[j*hidden+h] = g.Normal(0, scale)
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
	work := newMLPBatch(min(batch, n), d, hidden)
	for epoch := 0; epoch < epochs; epoch++ {
		g.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
		for start := 0; start < n; start += batch {
			end := min(start+batch, n)
			// A batch of zero total weight updates nothing.
			if bw := work.load(x, y, w, order[start:end]); bw != 0 {
				work.grad(m.w1, m.w2)
				work.update(m.w1, m.w2, step, m.Alpha, bw)
			}
		}
	}
	return nil
}

// load gathers the batch rows into the workspace, in batch order, and
// returns their total weight.
func (b *mlpBatch) load(x matrix.Dense, y []int, w []float64, rows []int) float64 {
	nb, d := len(rows), b.d
	b.rows = nb
	xt := b.xt[:(d+1)*nb]
	var bw float64
	for k, i := range rows {
		xi := x.Row(i)
		copy(b.xb[k*d:(k+1)*d], xi)
		for j, v := range xi {
			xt[j*nb+k] = v
		}
		b.t[k] = float64(y[i])
		wi := weightOf(w, i)
		b.wt[k] = wi
		bw += wi
	}
	ones := xt[d*nb:]
	for k := range ones {
		ones[k] = 1
	}
	return bw
}

// PredictProba runs the forward pass.
func (m *MLP) PredictProba(x []float64) float64 {
	if m.w1 == nil {
		return 0.5
	}
	hidden := m.hidden
	d := len(m.w1)/hidden - 1
	out := m.w2[hidden]
	for h := 0; h < hidden; h++ {
		z := m.w1[d*hidden+h]
		for j := 0; j < d && j < len(x); j++ {
			z += m.w1[j*hidden+h] * x[j]
		}
		out += m.w2[h] * math.Tanh(z)
	}
	return matrix.Sigmoid(out)
}

// PredictProbaInto implements Classifier.
func (m *MLP) PredictProbaInto(dst []float64, x matrix.Dense) {
	predictRows(m, dst, x)
}
