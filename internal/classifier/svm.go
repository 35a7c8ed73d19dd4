package classifier

import (
	"fairbench/internal/matrix"
	"fairbench/internal/rng"
)

// LinearSVM is a linear support-vector machine trained with the Pegasos
// primal sub-gradient method on the weighted hinge loss, with a Platt-style
// sigmoid fitted on the margins so PredictProba returns calibrated
// probabilities (post-processors need them).
type LinearSVM struct {
	// Lambda is the regularization strength (default 1e-3).
	Lambda float64
	// Epochs is the number of Pegasos passes (default 40).
	Epochs int
	// Seed drives the sampling order.
	Seed int64

	// W holds weights with intercept last; plattA/B calibrate margins.
	W              []float64
	plattA, plattB float64
}

// NewSVM returns a linear SVM with benchmark defaults.
func NewSVM() *LinearSVM { return &LinearSVM{Lambda: 1e-3, Epochs: 40, Seed: 7} }

// Fit trains the SVM; w may be nil for uniform weights. Defaults resolve
// into locals (the receiver's configuration fields are never written), so
// a zero-value model is reusable and race-free across cells.
func (s *LinearSVM) Fit(x matrix.Dense, y []int, w []float64) error {
	if err := checkFitInput(x, y, w); err != nil {
		return err
	}
	lambda, epochs := s.Lambda, s.Epochs
	if lambda == 0 {
		lambda = 1e-3
	}
	if epochs == 0 {
		epochs = 40
	}
	n, d := x.Rows, x.Cols
	g := rng.New(s.Seed)
	theta := make([]float64, d+1)
	t := 1
	for epoch := 0; epoch < epochs; epoch++ {
		for it := 0; it < n; it++ {
			i := g.Intn(n)
			wi := 1.0
			if w != nil {
				wi = w[i]
			}
			yi := 2*float64(y[i]) - 1 // {-1,+1}
			eta := 1 / (lambda * float64(t))
			t++
			// Pegasos is inherently sequential (theta changes every sampled
			// tuple), so the win here is bounds-check-free inner loops: the
			// reslice proves theta and the row share a length.
			xi := x.Row(i)
			th := theta[:len(xi)]
			margin := theta[d]
			for j, v := range xi {
				margin += th[j] * v
			}
			// L2 shrink on non-intercept weights.
			shrink := 1 - eta*lambda
			for j := range th {
				th[j] *= shrink
			}
			if yi*margin < 1 {
				step := eta * wi * yi
				for j, v := range xi {
					th[j] += step * v
				}
				theta[d] += step
			}
		}
	}
	s.W = theta
	s.fitPlatt(x, y)
	return nil
}

// fitPlatt fits P(y=1|m) = sigmoid(A*m + B) on the training margins by a
// short gradient descent; adequate for probability ranking. The margins
// are fixed once the weights are — computing them once into a reused
// buffer instead of redoing every dot product in all 200 iterations cuts
// the calibration from O(iters·n·d) to O(n·d + iters·n), bit-identically.
func (s *LinearSVM) fitPlatt(x matrix.Dense, y []int) {
	margins := make([]float64, x.Rows)
	for i := range margins {
		margins[i] = s.Score(x.Row(i))
	}
	a, b := 1.0, 0.0
	n := float64(x.Rows)
	for iter := 0; iter < 200; iter++ {
		var ga, gb float64
		for i, m := range margins {
			p := matrix.Sigmoid(a*m + b)
			diff := p - float64(y[i])
			ga += diff * m
			gb += diff
		}
		a -= 0.1 * ga / n
		b -= 0.1 * gb / n
	}
	s.plattA, s.plattB = a, b
}

// Score returns the signed margin wᵀx + b.
func (s *LinearSVM) Score(x []float64) float64 {
	d := len(s.W) - 1
	z := s.W[d]
	for j := 0; j < d && j < len(x); j++ {
		z += s.W[j] * x[j]
	}
	return z
}

// PredictProba returns the Platt-calibrated probability.
func (s *LinearSVM) PredictProba(x []float64) float64 {
	return matrix.Sigmoid(s.plattA*s.Score(x) + s.plattB)
}

// PredictProbaInto implements Classifier.
func (s *LinearSVM) PredictProbaInto(dst []float64, x matrix.Dense) {
	predictRows(s, dst, x)
}
