package inproc

import (
	"fmt"
	"math"

	"fairbench/internal/dataset"
	"fairbench/internal/fair"
	"fairbench/internal/optimize"
)

// AgarwalNotion selects the constraint an Agarwal instance enforces.
type AgarwalNotion int

const (
	// AgarwalDP enforces demographic parity.
	AgarwalDP AgarwalNotion = iota
	// AgarwalEO enforces equalized odds.
	AgarwalEO
)

// Agarwal implements Agarwal et al.'s reductions approach — the additional
// in-processing method of the paper's appendix (Figure 15, Agarwal^dp and
// Agarwal^eo): fair classification reduces to a sequence of cost-sensitive
// problems via exponentiated-gradient updates on the Lagrange multipliers
// of the group-rate constraints. Each inner step trains a weighted
// logistic learner whose per-tuple costs embed the current multipliers;
// the final classifier is the average of the iterates (a randomized
// classifier in the original; thresholded mean probability here).
type Agarwal struct {
	Notion AgarwalNotion
	// Rounds of exponentiated gradient (default 8).
	Rounds int

	base   linearBase
	models [][]float64
}

// Agarwal's allowed constraint violation and the multipliers' learning
// rate.
const (
	agarwalEps   float64 = 0.02
	agarwalEtaEG float64 = 2.0
)

// Name implements fair.Approach.
func (a *Agarwal) Name() string {
	if a.Notion == AgarwalEO {
		return "Agarwal-EO"
	}
	return "Agarwal-DP"
}

// Stage implements fair.Approach.
func (a *Agarwal) Stage() fair.Stage { return fair.StageIn }

// Targets implements fair.Approach.
func (a *Agarwal) Targets() []fair.Metric {
	if a.Notion == AgarwalEO {
		return []fair.Metric{fair.MetricTPRB, fair.MetricTNRB}
	}
	return []fair.Metric{fair.MetricDI}
}

// constraintViolations measures the signed group-rate gaps of predictions:
// one gap for DP, two (TPR, TNR) for EO.
func (a *Agarwal) constraintViolations(preds []int, y, s []int) []float64 {
	var pos, tot [2]float64
	var tp, pn, tn, nn [2]float64
	for i, p := range preds {
		g := s[i]
		tot[g]++
		if p == 1 {
			pos[g]++
		}
		if y[i] == 1 {
			pn[g]++
			if p == 1 {
				tp[g]++
			}
		} else {
			nn[g]++
			if p == 0 {
				tn[g]++
			}
		}
	}
	rate := func(num, den [2]float64) float64 {
		r0, r1 := 0.0, 0.0
		if den[0] > 0 {
			r0 = num[0] / den[0]
		}
		if den[1] > 0 {
			r1 = num[1] / den[1]
		}
		return r1 - r0
	}
	if a.Notion == AgarwalDP {
		return []float64{rate(pos, tot)}
	}
	return []float64{rate(tp, pn), rate(tn, nn)}
}

// Fit implements fair.Approach.
func (a *Agarwal) Fit(train *dataset.Dataset) error {
	if a.Rounds == 0 {
		a.Rounds = 8
	}
	a.base.includeS = false
	x := a.base.designMatrix(train)
	y, s := train.Y, train.S
	n, dim := x.Rows, x.Cols
	view := newFitView(x, y)

	nCons := 1
	if a.Notion == AgarwalEO {
		nCons = 2
	}
	// Signed multipliers, one per constraint (positive pushes group-1
	// rates down, negative pushes them up).
	lambda := make([]float64, nCons)
	weights := make([]float64, n)
	w := make([]float64, dim+1)
	a.models = nil

	for round := 0; round < a.Rounds; round++ {
		// Cost-sensitive weights from the current multipliers: tuples in
		// group 1 (resp. 0) have the cost of a positive prediction
		// shifted by +lambda (resp. -lambda), realized here as label-
		// conditional instance reweighting.
		for i := range weights {
			weights[i] = 1
			sign := 1.0
			if s[i] == 0 {
				sign = -1
			}
			var shift float64
			if a.Notion == AgarwalDP {
				shift = sign * lambda[0]
			} else {
				if y[i] == 1 {
					shift = sign * lambda[0]
				} else {
					shift = -sign * lambda[1]
				}
			}
			// A positive shift penalizes positive predictions: emphasize
			// the negative label direction by weighting.
			if y[i] == 1 {
				weights[i] = math.Exp(-shift)
			} else {
				weights[i] = math.Exp(shift)
			}
			weights[i] = math.Min(8, math.Max(1.0/8, weights[i]))
		}
		w, _ = optimize.Adam(view.weightedLogitGrad(weights), w, optimize.AdamConfig{MaxIter: 250})
		a.models = append(a.models, append([]float64(nil), w...))

		// Exponentiated-gradient step on the averaged classifier's
		// violations.
		preds := averageLabels(a.models, x)
		viols := a.constraintViolations(preds, y, s)
		converged := true
		for c, v := range viols {
			if math.Abs(v) > agarwalEps {
				converged = false
			}
			lambda[c] += agarwalEtaEG * v
			lambda[c] = math.Min(10, math.Max(-10, lambda[c]))
		}
		if converged {
			break
		}
	}
	return nil
}

// Predict implements fair.Approach.
func (a *Agarwal) Predict(test *dataset.Dataset) ([]int, error) {
	if len(a.models) == 0 {
		return nil, fmt.Errorf("%s: not fitted", a.Name())
	}
	return averageLabels(a.models, a.base.inputs(test, false)), nil
}

// PredictFlipped implements fair.Approach; S is not a feature, so Agarwal
// trivially satisfies the ID metric.
func (a *Agarwal) PredictFlipped(_ *dataset.Dataset, yhat []int) (factual, flipped []int) {
	return yhat, yhat
}

// NewAgarwalDP returns the appendix's Agarwal^dp approach.
func NewAgarwalDP() fair.Approach { return &Agarwal{Notion: AgarwalDP} }

// NewAgarwalEO returns the appendix's Agarwal^eo approach.
func NewAgarwalEO() fair.Approach { return &Agarwal{Notion: AgarwalEO} }
