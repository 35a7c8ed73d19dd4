package classifier

import "fairbench/internal/matrix"

// This file holds the blocked passes of the training loops: logistic
// regression's gradient over its matrix.Design, and the MLP's batch
// passes over its mini-batch workspace. Both run the matrix package's
// blocked kernels over flat data. Like internal/matrix/kernels.go, this
// file is held bounds-check-free by the CI check_bce gate, and every loop
// preserves the exact fold order of the per-row loop it replaced, so the
// weights are bit-identical to it (the MLP's row loop is kept as
// reference_test.go's refMLP).

// logitGradFlat accumulates the weighted logistic-loss gradient over the
// design matrix into grad: one blocked z-pass (AffineInto), a sigmoid
// pass into gb, then the fused residual pass and scatter
// (ResidualScatter), which overwrites gb with the per-tuple coefficients
// w_i·(p_i − y_i) and adds their scatter, intercept slot grad[cols]
// last. y holds the labels as 0 or 1. Because grad arrives zeroed and
// every component's terms are summed in ascending row order, the result
// is bit-identical to an interleaved per-row objective.
func logitGradFlat(dm *matrix.Design, y, w, theta, z, gb, grad []float64) {
	d := dm.Cols
	th := theta[:d+1]
	dm.AffineInto(z, th[:d], th[d])
	matrix.SigmoidInto(gb, z)
	dm.ResidualScatter(grad[:d+1], gb, w, gb, y, 1)
}

// mlpBatch is the MLP's mini-batch workspace: one slab allocated per fit,
// sized for its largest batch, that each batch reslices to its own row
// count (load, in mlp.go, gathers the rows).
type mlpBatch struct {
	d, hidden int
	rows      int       // rows in the loaded batch
	xb        []float64 // rows × d: the batch's features, row-major in batch order
	xt        []float64 // (d+1) × rows: the same column-major, then a row of ones
	t, wt     []float64 // rows: labels and tuple weights
	act       []float64 // rows × hidden: hidden pre-activations, then their tanh
	dh        []float64 // rows × hidden: the loss gradient at each pre-activation
	out       []float64 // rows: output pre-activations
	dout      []float64 // rows: output probabilities, then weighted residuals
	g1        []float64 // (d+1) × hidden: first-layer gradient, laid out like MLP.w1
	g2        []float64 // hidden: second-layer gradient
	g2b       float64   // the output bias's gradient
}

func newMLPBatch(rows, d, hidden int) mlpBatch {
	b := mlpBatch{d: d, hidden: hidden}
	slab := make([]float64, rows*(2*d+5+2*hidden)+(d+2)*hidden)
	take := func(k int) []float64 {
		s := slab[:k:k]
		slab = slab[k:]
		return s
	}
	b.xb, b.xt = take(rows*d), take(rows*(d+1))
	b.t, b.wt = take(rows), take(rows)
	b.act, b.dh = take(rows*hidden), take(rows*hidden)
	b.out, b.dout = take(rows), take(rows)
	b.g1, b.g2 = take((d+1)*hidden), take(hidden)
	return b
}

// grad runs the loaded batch's passes under the weights w1 and w2 (laid
// out as MLP's) and leaves the batch's summed gradients in g1, g2 and
// g2b. Each pass computes what the per-row loop computes for every row,
// and each gradient component sums its terms in batch row order, as the
// per-row loop accumulates them.
func (b *mlpBatch) grad(w1, w2 []float64) {
	d, hn, nb := b.d, b.hidden, b.rows
	// Hidden z-pass: a row's pre-activations start at the biases and add
	// feature j's terms in ascending j, one hidden unit per lane.
	act := b.act[:nb*hn]
	xb := b.xb[:nb*d]
	wd := matrix.Dense{Data: w1[:d*hn], Rows: d, Cols: hn, Stride: hn}
	bias := w1[d*hn : (d+1)*hn]
	for k := 0; k < nb; k++ {
		zk := act[k*hn : (k+1)*hn]
		copy(zk, bias)
		wd.ScatterRows(zk, xb[k*d:(k+1)*d])
	}
	matrix.TanhInto(act, act)

	// Output fold from w2's bias, then the sigmoid and the weighted
	// residuals dOut.
	hd := matrix.Dense{Data: act, Rows: nb, Cols: hn, Stride: hn}
	w2h, w2b := w2[:hn], w2[hn:hn+1]
	out, dout := b.out[:nb], b.dout[:nb]
	hd.AffineInto(out, w2h, w2b[0])
	matrix.SigmoidInto(dout, out)
	t, wt := b.t[:len(dout)], b.wt[:len(dout)]
	b.g2b = 0
	for k, p := range dout {
		g := wt[k] * (p - t[k])
		dout[k] = g
		b.g2b += g
	}

	// Second layer: g2[h] += dOut·tanh, over the rows in batch order.
	g2 := b.g2[:hn]
	clear(g2)
	hd.ScatterRows(g2, dout)

	// Back through tanh, then the first layer: feature j's row of g1 adds
	// every row's dHid·x[j] in batch order, and xt's ones row makes g1's
	// last row the bias gradient (1·dHid is dHid exactly).
	dh := b.dh[:nb*hn]
	for k, g := range dout {
		ak := act[k*hn : (k+1)*hn]
		dk := dh[k*hn : (k+1)*hn]
		for h, hv := range ak {
			dk[h] = g * w2h[h] * (1 - hv*hv)
		}
	}
	dd := matrix.Dense{Data: dh, Rows: nb, Cols: hn, Stride: hn}
	xt := b.xt[:(d+1)*nb]
	g1 := b.g1[:(d+1)*hn]
	clear(g1)
	for j := 0; j <= d; j++ {
		dd.ScatterRows(g1[j*hn:(j+1)*hn], xt[j*nb:(j+1)*nb])
	}
}

// update takes one SGD step of rate lr on the batch's gradients, scaled
// by the batch's total weight bw, with L2 penalty alpha on every weight
// but the output bias.
func (b *mlpBatch) update(w1, w2 []float64, lr, alpha, bw float64) {
	g1 := b.g1[:len(w1)]
	for k, gk := range g1 {
		w1[k] -= lr * (gk/bw + alpha*w1[k])
	}
	hn := b.hidden
	g2 := b.g2[:hn]
	w2h, w2b := w2[:len(g2)], w2[hn:hn+1]
	for h, gh := range g2 {
		w2h[h] -= lr * (gh/bw + alpha*w2h[h])
	}
	w2b[0] -= lr * b.g2b / bw
}
