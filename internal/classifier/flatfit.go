package classifier

import "fairbench/internal/matrix"

// This file holds the flat-backing fast paths of the training loops. When
// a design matrix arrives as views of one tightly packed backing array
// (matrix.AsDense succeeds — the shape every dataset.FeatureMatrix
// produces), the per-iteration work runs as blocked
// kernels over the flat data instead of row-pointer chasing. Like
// internal/matrix/kernels.go, this file is held bounds-check-free by the
// CI check_bce gate, and every loop preserves the exact scalar fold order
// of the [][]float64 path so the two produce bit-identical weights.

// logitGradFlat accumulates the weighted logistic-loss gradient over a
// flat design matrix into grad: one blocked z-pass (AffineInto), a sigmoid
// pass staging the per-tuple coefficients into gb, then one blocked scatter
// (ScatterRows). grad[:cols] and the intercept slot grad[cols] are
// accumulated into (not overwritten), and normalization/regularization stay
// with the caller. Because grad arrives zeroed and every component's terms
// are summed in ascending row order, the result is bit-identical to the
// interleaved scalar objective it replaces.
func logitGradFlat(dm *matrix.Design, y []int, w []float64, theta, z, gb, grad []float64) {
	d := dm.Cols
	th := theta[:d+1]
	dm.AffineInto(z, th[:d], th[d])
	matrix.SigmoidInto(gb, z)
	gfull := grad[:d+1]
	gd := gfull[:d]
	y = y[:len(z)]
	gb = gb[:len(z)]
	gInt := 0.0
	if w == nil {
		for i, p := range gb {
			g := p - float64(y[i])
			gb[i] = g
			gInt += g
		}
	} else {
		w = w[:len(z)]
		for i, p := range gb {
			g := w[i] * (p - float64(y[i]))
			gb[i] = g
			gInt += g
		}
	}
	dm.ScatterRows(gd, gb)
	gfull[d] += gInt
}
