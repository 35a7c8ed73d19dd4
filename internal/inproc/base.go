// Package inproc implements the five in-processing approaches of the
// benchmark (Figure 5, "in" rows): the Zafar decision-boundary-covariance
// family, Zha-Le adversarial learning, Kearns subgroup-fairness auditing,
// the Celis meta-algorithm, and the Thomas Seldonian framework. Each
// approach embeds fairness into the training procedure itself and
// implements fair.Approach directly.
package inproc

import (
	"fairbench/internal/dataset"
	"fairbench/internal/matrix"
	"fairbench/internal/optimize"
)

// linearBase holds the shared state of the linear in-processing models:
// a fitted standardizer and a weight vector over the (standardized)
// features with the intercept last. Whether S is part of the features is a
// per-approach decision; Zafar's family excludes it (S appears only in the
// fairness constraint), matching the original formulation.
type linearBase struct {
	std      *dataset.Standardizer
	w        []float64
	includeS bool
}

// designMatrix returns the standardized design used for optimization,
// fitting the standardizer along the way.
func (b *linearBase) designMatrix(train *dataset.Dataset) matrix.Dense {
	std, x := train.StandardizedDesign(b.includeS)
	b.std = std
	return x
}

// inputs returns the standardized classifier input of every tuple of d
// (see dataset.Standardizer.Inputs), with S flipped when flipS.
func (b *linearBase) inputs(d *dataset.Dataset, flipS bool) matrix.Dense {
	return b.std.Inputs(d, b.includeS, flipS, nil)
}

// score returns the signed distance proxy wᵀx + intercept.
func (b *linearBase) score(row []float64) float64 {
	d := len(b.w) - 1
	z := b.w[d]
	for j := 0; j < d && j < len(row); j++ {
		z += b.w[j] * row[j]
	}
	return z
}

// predictAll labels every tuple of d by thresholding the linear score at
// zero.
func (b *linearBase) predictAll(d *dataset.Dataset) []int {
	x := b.inputs(d, false)
	out := make([]int, d.Len())
	for i := range out {
		if b.score(x.Row(i)) >= 0 {
			out[i] = 1
		}
	}
	return out
}

// fitView bundles the per-fit training state the fused objectives share:
// the design as a matrix.Design, whose column-major and augmented copies
// are built here once per fit, plus score and probability buffers reused
// across every optimizer iteration. The point is pass fusion: an
// objective built from these helpers runs one blocked z-pass and one
// sigmoid pass per evaluation, and every consumer of the scores (loss
// gradient, constraint values, constraint gradients) reads the shared
// buffers instead of recomputing the affine map — with each helper
// preserving the exact scalar fold order of a per-row loop, so the
// optimizer trajectory is bit-identical to one.
type fitView struct {
	y  []float64 // the labels, 0 or 1
	dm matrix.Design
	z  []float64 // affine scores of the current iterate
	p  []float64 // sigmoid of z, filled on demand by fillP
	g  []float64 // per-tuple gradient coefficients, scratch for ResidualScatter
	l  []float64 // per-tuple loss terms, scratch for LogInto
}

// gbuf returns the per-tuple coefficient scratch, allocating it on first use.
func (v *fitView) gbuf() []float64 {
	if v.g == nil {
		v.g = make([]float64, len(v.z))
	}
	return v.g
}

func newFitView(x matrix.Dense, y []int) *fitView {
	yf := make([]float64, len(y))
	for i, yi := range y {
		yf[i] = float64(yi)
	}
	return &fitView{y: yf, dm: matrix.NewDesign(x), z: make([]float64, x.Rows)}
}

// fillZ computes the affine scores of w over every row into v.z with the
// bias-first fold the scalar loops use.
func (v *fitView) fillZ(w []float64) {
	d := len(w) - 1
	v.dm.AffineInto(v.z, w[:d], w[d])
}

// fillP computes p[i] = sigmoid(z[i]) from the current scores.
func (v *fitView) fillP() {
	if v.p == nil {
		v.p = make([]float64, len(v.z))
	}
	matrix.SigmoidInto(v.p, v.z)
}

// logGradFromZ accumulates the mean-logistic-loss gradient from the
// scores already in v.z (grad pre-zeroed): fillP, then logGradFromP.
func (v *fitView) logGradFromZ(grad []float64) {
	v.fillP()
	v.logGradFromP(grad)
}

// logLossGradFromZ is logGradFromZ also returning the mean logistic loss.
// Each tuple's likelihood (matrix.LikelihoodInto) is staged in the l
// scratch and logged in one LogInto pass; the loss then folds -log in
// ascending tuple order, so it equals a per-tuple fold of -log of the
// clamped likelihood bit for bit.
func (v *fitView) logLossGradFromZ(grad []float64) float64 {
	v.fillP()
	if v.l == nil {
		v.l = make([]float64, len(v.z))
	}
	l := v.l[:len(v.p)]
	matrix.LikelihoodInto(l, v.p, v.y)
	v.logGradFromP(grad)
	matrix.LogInto(l, l)
	var loss float64
	for _, li := range l {
		loss += -li
	}
	return loss / float64(len(v.z))
}

// logGradFromP accumulates the mean-logistic-loss gradient from the
// probabilities already in v.p (grad pre-zeroed); for objectives whose
// other terms also consume the sigmoid pass. The per-tuple coefficients
// (p_i − y_i)/n are staged into the g scratch and scattered, intercept
// last, by one fused pass; because grad is pre-zeroed, every component's
// fold is identical to the interleaved per-row loop.
func (v *fitView) logGradFromP(grad []float64) {
	v.dm.ResidualScatter(grad, v.gbuf(), nil, v.p, v.y, float64(len(v.z)))
}

// weightedLogitGrad returns the gradient-only objective of the weighted
// mean logistic loss, the cost-sensitive learner of Agarwal's and Kearns'
// rounds: with c_i = weights[i], grad = Σ_i c_i·(p_i − y_i)·[x_i, 1] / Σ_i c_i
// (no division when Σ_i c_i is not positive), and the value returned is 0,
// since Adam reads only the gradient. The weights must not change while
// the objective is in use: their total is summed once, in ascending order.
func (v *fitView) weightedLogitGrad(weights []float64) optimize.Objective {
	var tw float64
	for _, wi := range weights {
		tw += wi
	}
	return func(w, grad []float64) float64 {
		clear(grad)
		v.fillZ(w)
		v.fillP()
		v.dm.ResidualScatter(grad, v.gbuf(), weights, v.p, v.y, 1)
		if tw > 0 {
			for j := range grad {
				grad[j] /= tw
			}
		}
		return 0
	}
}
