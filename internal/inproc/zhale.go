package inproc

import (
	"fmt"

	"fairbench/internal/dataset"
	"fairbench/internal/fair"
	"fairbench/internal/matrix"
	"fairbench/internal/rng"
)

// ZhaLe implements Zhang, Lemoine & Mitchell's adversarial debiasing for
// equalized odds: a logistic classifier f(X) -> Ŷ is trained jointly with
// a logistic adversary a(Ŷ_prob, Y) -> Ŝ. The adversary descends on its
// own loss; the classifier descends on its prediction loss while ascending
// on the adversary's (gradient reversal with strength zhaLeAlpha),
// converging to weights from which the adversary cannot recover S given
// Y — i.e. equalized odds.
type ZhaLe struct {
	// Epochs is the number of alternating passes (default 80).
	Epochs int
	// Seed drives shuffling.
	Seed int64

	base linearBase
	adv  [4]float64 // adversary weights over [p̂, y, p̂·y] + bias
}

// ZhaLe's adversarial gradient weight and both players' learning rate.
const (
	zhaLeAlpha float64 = 1.0
	zhaLeStep  float64 = 0.1
)

// Name implements fair.Approach.
func (z *ZhaLe) Name() string { return "ZhaLe-EO" }

// Stage implements fair.Approach.
func (z *ZhaLe) Stage() fair.Stage { return fair.StageIn }

// Targets implements fair.Approach.
func (z *ZhaLe) Targets() []fair.Metric {
	return []fair.Metric{fair.MetricTPRB, fair.MetricTNRB}
}

// Fit implements fair.Approach.
func (z *ZhaLe) Fit(train *dataset.Dataset) error {
	if z.Epochs == 0 {
		z.Epochs = 80
	}
	z.base.includeS = false
	x := z.base.designMatrix(train)
	y, s := train.Y, train.S
	n, dim := x.Rows, x.Cols
	w := make([]float64, dim+1)
	var phi [4]float64
	g := rng.New(z.Seed)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}

	for epoch := 0; epoch < z.Epochs; epoch++ {
		g.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
		// Decay both steps mildly for stability.
		lr := zhaLeStep / (1 + 0.02*float64(epoch))
		for _, i := range order {
			row := x.Row(i)
			// Classifier forward.
			zc := w[dim]
			for j, v := range row {
				zc += w[j] * v
			}
			p := matrix.Sigmoid(zc)
			yi := float64(y[i])
			// Adversary forward on u = [p, y, p*y].
			u := [3]float64{p, yi, p * yi}
			za := phi[3]
			for k := 0; k < 3; k++ {
				za += phi[k] * u[k]
			}
			ps := matrix.Sigmoid(za)
			si := float64(s[i])

			// Adversary update: minimize its own log loss.
			da := ps - si
			for k := 0; k < 3; k++ {
				phi[k] -= lr * da * u[k]
			}
			phi[3] -= lr * da

			// Classifier update: descend prediction loss, ascend
			// adversary loss. dLa/dp = da*(phi0 + phi2*y); chain through
			// dp/dz = p(1-p).
			dLf := p - yi
			dLaDp := da * (phi[0] + phi[2]*yi)
			// The prediction-loss part uses dLf directly (logistic
			// gradient); the adversarial part flows through sigmoid'.
			gradScale := dLf - zhaLeAlpha*dLaDp*p*(1-p)
			for j, v := range row {
				w[j] -= lr * gradScale * v
			}
			w[dim] -= lr * gradScale
		}
	}
	z.base.w = w
	z.adv = phi
	return nil
}

// Predict implements fair.Approach.
func (z *ZhaLe) Predict(test *dataset.Dataset) ([]int, error) {
	if z.base.w == nil {
		return nil, fmt.Errorf("%s: not fitted", z.Name())
	}
	return z.base.predictAll(test), nil
}

// PredictFlipped implements fair.Approach: S is no classifier input.
func (z *ZhaLe) PredictFlipped(_ *dataset.Dataset, yhat []int) (factual, flipped []int) {
	return yhat, yhat
}

// AdversaryAccuracy reports how well the trained adversary recovers S on a
// dataset — a diagnostic: near 50% means the classifier leaks no group
// information through (Ŷ, Y).
func (z *ZhaLe) AdversaryAccuracy(d *dataset.Dataset) float64 {
	if z.base.w == nil {
		return 0
	}
	correct := 0
	x := z.base.inputs(d, false)
	for i := range d.X {
		p := matrix.Sigmoid(z.base.score(x.Row(i)))
		yi := float64(d.Y[i])
		za := z.adv[3] + z.adv[0]*p + z.adv[1]*yi + z.adv[2]*p*yi
		pred := 0
		if matrix.Sigmoid(za) >= 0.5 {
			pred = 1
		}
		if pred == d.S[i] {
			correct++
		}
	}
	return float64(correct) / float64(d.Len())
}

// NewZhaLe returns the evaluated Zha-Le^eo approach.
func NewZhaLe(seed int64) fair.Approach { return &ZhaLe{Seed: seed} }
