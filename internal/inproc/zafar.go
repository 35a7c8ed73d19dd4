package inproc

import (
	"fmt"

	"fairbench/internal/dataset"
	"fairbench/internal/fair"
	"fairbench/internal/matrix"
	"fairbench/internal/optimize"
)

// ZafarMode selects among the three evaluated Zafar variants.
type ZafarMode int

const (
	// ZafarDPFair maximizes accuracy under a demographic-parity proxy
	// constraint (Zafar^dp_Fair).
	ZafarDPFair ZafarMode = iota
	// ZafarDPAcc maximizes fairness under an accuracy constraint
	// (Zafar^dp_Acc).
	ZafarDPAcc
	// ZafarEOFair maximizes accuracy under an equalized-odds proxy
	// constraint computed over misclassified tuples (Zafar^eo_Fair).
	ZafarEOFair
)

// Zafar implements Zafar et al.'s fairness-constrained logistic
// classifiers. The fairness proxy is the empirical covariance between the
// sensitive attribute and the tuple's signed distance to the decision
// boundary:
//
//	cov = (1/|D|) Σ_t (S_t - S̄) d_θ(X_t)
//
// (for the eo variant, the distance term is -d_θ(X_t) on misclassified
// tuples and 0 otherwise, re-fixed over a few DCCP-style outer rounds).
// Constrained problems are solved with the penalty method; the sensitive
// attribute never enters the feature vector.
type Zafar struct {
	Mode ZafarMode
	// CovBound is the allowed |cov| (default 1e-3).
	CovBound float64
	// Gamma is the allowed relative loss increase for the Acc variant
	// (default 0.10).
	Gamma float64

	base linearBase
}

// Name implements fair.Approach.
func (z *Zafar) Name() string {
	switch z.Mode {
	case ZafarDPAcc:
		return "Zafar-DP-Acc"
	case ZafarEOFair:
		return "Zafar-EO-Fair"
	default:
		return "Zafar-DP-Fair"
	}
}

// Stage implements fair.Approach.
func (z *Zafar) Stage() fair.Stage { return fair.StageIn }

// Targets implements fair.Approach.
func (z *Zafar) Targets() []fair.Metric {
	if z.Mode == ZafarEOFair {
		return []fair.Metric{fair.MetricTPRB, fair.MetricTNRB}
	}
	return []fair.Metric{fair.MetricDI}
}

// Fit implements fair.Approach.
func (z *Zafar) Fit(train *dataset.Dataset) error {
	if z.CovBound == 0 {
		z.CovBound = 1e-3
	}
	if z.Gamma == 0 {
		z.Gamma = 0.10
	}
	z.base.includeS = false
	x := z.base.designMatrix(train)
	y := train.Y
	n := float64(x.Rows)
	dim := x.Cols
	view := newFitView(x, y)

	sBar := 0.0
	for _, s := range train.S {
		sBar += float64(s)
	}
	sBar /= n
	sCent := make([]float64, x.Rows)
	for i, s := range train.S {
		sCent[i] = float64(s) - sBar
	}

	// The covariance proxy factors cleanly over a fixed set of
	// contributing tuples: its value needs only the affine scores
	// (cov = Σ sCent[i]·z_i / n over the set), and its gradient is
	// CONSTANT in w — grad[j] = Σ sCent[i]·x_ij/n. So the fused objectives
	// below compute the gradient once per set (original fold order
	// preserved) and per iteration share one z-pass between the loss and
	// both constraint closures, relying on MinimizePenalty's documented
	// call order: f first, then every constraint at the same iterate.
	covGradFor := func(idx []int) []float64 {
		grad := make([]float64, dim+1)
		for _, i := range idx {
			si := sCent[i]
			for j, v := range x.Row(i) {
				grad[j] += si * v / n
			}
			grad[dim] += si / n
		}
		return grad
	}
	all := make([]int, x.Rows)
	for i := range all {
		all[i] = i
	}
	covFromZ := func() float64 {
		var c float64
		for i, zi := range view.z {
			c += sCent[i] * zi
		}
		return c / n
	}
	// covOver is covFromZ over the tuples idx lists, in its (ascending)
	// order: the eo variant's misclassified set, fixed for a whole round.
	covOver := func(idx []int) float64 {
		var c float64
		for _, i := range idx {
			c += sCent[i] * view.z[i]
		}
		return c / n
	}

	w0 := make([]float64, dim+1)
	switch z.Mode {
	case ZafarDPFair:
		covGrad := covGradFor(all)
		negCovGrad := matrix.Clone(covGrad)
		matrix.Scale(-1, negCovGrad)
		// Gradient-only: the penalty method's inner Adam never reads the
		// objective value. The loss fills the shared z buffer; the
		// constraints reuse it.
		loss := func(w, grad []float64) float64 {
			for j := range grad {
				grad[j] = 0
			}
			view.fillZ(w)
			view.logGradFromZ(grad)
			return 0
		}
		var covVal float64
		cpos := func(w, grad []float64) float64 {
			covVal = covFromZ()
			copy(grad, covGrad)
			return covVal - z.CovBound
		}
		cneg := func(w, grad []float64) float64 {
			copy(grad, negCovGrad)
			return -covVal - z.CovBound
		}
		z.base.w = optimize.MinimizePenalty(loss, []optimize.Constraint{cpos, cneg}, w0,
			optimize.PenaltyConfig{Rho0: 10, Inner: optimize.AdamConfig{MaxIter: 400}})

	case ZafarDPAcc:
		// Phase 1: unconstrained optimum fixes the loss budget.
		uncon := func(w, grad []float64) float64 {
			for j := range grad {
				grad[j] = 0
			}
			view.fillZ(w)
			return view.logLossGradFromZ(grad)
		}
		wStar, lStar := optimize.Adam(uncon, w0, optimize.AdamConfig{MaxIter: 400})
		budget := (1 + z.Gamma) * lStar
		// Phase 2: minimize cov^2 subject to loss <= budget. The objective
		// runs the z-pass; the loss constraint reuses its scores.
		covGrad := covGradFor(all)
		obj := func(w, grad []float64) float64 {
			view.fillZ(w)
			c := covFromZ()
			for j := range grad {
				grad[j] = 2 * c * covGrad[j]
			}
			return c * c
		}
		lossCon := func(w, grad []float64) float64 {
			for j := range grad {
				grad[j] = 0
			}
			return view.logLossGradFromZ(grad) - budget
		}
		z.base.w = optimize.MinimizePenalty(obj, []optimize.Constraint{lossCon}, wStar,
			optimize.PenaltyConfig{Rho0: 10, Inner: optimize.AdamConfig{MaxIter: 400}})

	case ZafarEOFair:
		// DCCP-style outer loop: fix the misclassified set under the
		// current weights, solve the resulting penalized convex
		// subproblem, repeat.
		// Gradient-only: both the warm start and the penalized subproblems
		// run under Adam, which discards the value.
		uncon := func(wv, grad []float64) float64 {
			for j := range grad {
				grad[j] = 0
			}
			view.fillZ(wv)
			view.logGradFromZ(grad)
			return 0
		}
		w, _ := optimize.Adam(uncon, w0, optimize.AdamConfig{MaxIter: 300})
		for round := 0; round < 4; round++ {
			mis := make([]int, 0, x.Rows)
			view.fillZ(w)
			for i, zv := range view.z {
				pred := 0
				if zv >= 0 {
					pred = 1
				}
				if pred != y[i] {
					mis = append(mis, i)
				}
			}
			covGrad := covGradFor(mis)
			negCovGrad := matrix.Clone(covGrad)
			matrix.Scale(-1, negCovGrad)
			var covVal float64
			cpos := func(wv, grad []float64) float64 {
				covVal = covOver(mis)
				copy(grad, covGrad)
				return covVal - z.CovBound
			}
			cneg := func(wv, grad []float64) float64 {
				copy(grad, negCovGrad)
				return -covVal - z.CovBound
			}
			w = optimize.MinimizePenalty(uncon, []optimize.Constraint{cpos, cneg}, w,
				optimize.PenaltyConfig{Rho0: 10, Outer: 4, Inner: optimize.AdamConfig{MaxIter: 250}})
		}
		z.base.w = w
	default:
		return fmt.Errorf("zafar: unknown mode %d", z.Mode)
	}
	return nil
}

// Predict implements fair.Approach.
func (z *Zafar) Predict(test *dataset.Dataset) ([]int, error) {
	if z.base.w == nil {
		return nil, fmt.Errorf("%s: not fitted", z.Name())
	}
	return z.base.predictAll(test), nil
}

// PredictFlipped implements fair.Approach. Zafar never uses S at
// prediction time, so it trivially satisfies the ID metric (Section 4.2).
func (z *Zafar) PredictFlipped(_ *dataset.Dataset, yhat []int) (factual, flipped []int) {
	return yhat, yhat
}

// NewZafarDPFair returns the evaluated Zafar^dp_Fair variant.
func NewZafarDPFair() fair.Approach { return &Zafar{Mode: ZafarDPFair} }

// NewZafarDPAcc returns the evaluated Zafar^dp_Acc variant.
func NewZafarDPAcc() fair.Approach { return &Zafar{Mode: ZafarDPAcc} }

// NewZafarEOFair returns the evaluated Zafar^eo_Fair variant.
func NewZafarEOFair() fair.Approach { return &Zafar{Mode: ZafarEOFair} }
