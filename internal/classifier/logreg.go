package classifier

import (
	"fairbench/internal/matrix"
	"fairbench/internal/optimize"
)

// LogisticRegression is an L2-regularized logistic-regression classifier
// trained by full-batch Adam on the weighted log loss. It is the paper's
// fairness-unaware baseline and the default model completing pre- and
// post-processing pipelines.
//
// Fit resolves unset hyper-parameters to the benchmark defaults without
// writing them back to the receiver, so a zero-value model is reusable
// and data-race-free when cells sharing a factory train concurrently.
type LogisticRegression struct {
	// L2 is the ridge penalty on the non-intercept weights (default 1e-3,
	// matching scikit-learn's mild default regularization role).
	L2 float64
	// MaxIter bounds the optimizer (default 300).
	MaxIter int
	// Step is the Adam learning rate (default 0.1).
	Step float64

	// W holds the learned weights; the last entry is the intercept.
	W []float64
}

// NewLogistic returns a logistic regression with benchmark defaults.
func NewLogistic() *LogisticRegression {
	return &LogisticRegression{L2: 1e-3, MaxIter: 300, Step: 0.1}
}

// Fit trains the model; w may be nil for uniform weights.
//
// The Adam objective below is gradient-only: it returns 0 instead of the
// weighted log loss. Adam's update and stopping rule read nothing but the
// gradient, and the callers discard the final objective value, so
// skipping the two math.Log calls per tuple per iteration leaves the
// weight trajectory bit-identical while nearly halving fit time. Each
// evaluation runs the blocked z-pass and scatter kernels (flatfit.go);
// the design's column-major copy and the score and coefficient buffers
// are built once per fit and reused across all Adam iterations, whose
// gradient buffer Adam owns, so the loop itself allocates nothing
// (pinned by TestFitAllocationBounds).
func (lr *LogisticRegression) Fit(x matrix.Dense, y []int, w []float64) error {
	if err := checkFitInput(x, y, w); err != nil {
		return err
	}
	maxIter, step := lr.MaxIter, lr.Step
	if maxIter == 0 {
		maxIter = 300
	}
	if step == 0 {
		step = 0.1
	}
	n, d := x.Rows, x.Cols
	var totalW float64
	if w == nil {
		totalW = float64(n)
	} else {
		totalW = matrix.Sum(w)
	}
	if totalW <= 0 {
		totalW = 1
	}
	des := matrix.NewDesign(x)
	zbuf, gbuf, yf := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, yi := range y {
		yf[i] = float64(yi)
	}
	obj := func(theta []float64, grad []float64) float64 {
		for j := range grad {
			grad[j] = 0
		}
		logitGradFlat(&des, yf, w, theta, zbuf, gbuf, grad)
		for j := range grad {
			grad[j] /= totalW
		}
		for j := 0; j < d; j++ { // no penalty on intercept
			grad[j] += 2 * lr.L2 * theta[j]
		}
		return 0
	}
	w0 := make([]float64, d+1)
	theta, _ := optimize.Adam(obj, w0, optimize.AdamConfig{Step: step, MaxIter: maxIter})
	lr.W = theta
	return nil
}

// Score returns the raw decision value (signed distance proxy) wᵀx + b.
func (lr *LogisticRegression) Score(x []float64) float64 {
	d := len(lr.W) - 1
	z := lr.W[d]
	for j := 0; j < d && j < len(x); j++ {
		z += lr.W[j] * x[j]
	}
	return z
}

// PredictProba returns the sigmoid of the decision value.
func (lr *LogisticRegression) PredictProba(x []float64) float64 {
	return matrix.Sigmoid(lr.Score(x))
}

// PredictProbaInto implements Classifier.
func (lr *LogisticRegression) PredictProbaInto(dst []float64, x matrix.Dense) {
	predictRows(lr, dst, x)
}
