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

// designMatrix returns the standardized feature rows used for
// optimization, fitting (or sharing, under batched execution's design
// cache) the standardizer along the way.
func (b *linearBase) designMatrix(train *dataset.Dataset) [][]float64 {
	std, rows := train.StandardizedDesign(b.includeS)
	b.std = std
	return rows
}

// row builds a standardized prediction row for raw features x and
// sensitive value s.
func (b *linearBase) row(x []float64, s int) []float64 {
	r := append([]float64(nil), x...)
	b.std.ApplyRow(r)
	return dataset.FeatureRow(r, s, b.includeS)
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

// predictOne thresholds the linear score at zero.
func (b *linearBase) predictOne(x []float64, s int) int {
	if b.w == nil {
		return 0
	}
	if b.score(b.row(x, s)) >= 0 {
		return 1
	}
	return 0
}

// predictAll labels a full dataset.
func (b *linearBase) predictAll(d *dataset.Dataset) []int {
	out := make([]int, d.Len())
	for i := range out {
		out[i] = b.predictOne(d.X[i], d.S[i])
	}
	return out
}

// fitView bundles the per-fit training state the fused objectives share:
// the design matrix in row-view and (when the rows alias one tight
// backing, which dataset.FeatureMatrix guarantees) flat form, plus score
// and probability buffers reused across every optimizer iteration. The
// point is pass fusion: an objective built from these helpers runs one
// blocked z-pass and one sigmoid pass per evaluation, and every consumer
// of the scores (loss gradient, constraint values, constraint gradients)
// reads the shared buffers instead of recomputing the affine map — with
// each helper preserving the exact scalar fold order of the loop it
// replaces, so the optimizer trajectory stays bit-identical.
type fitView struct {
	x    [][]float64
	y    []int
	dm   matrix.Dense
	flat bool
	z    []float64 // affine scores of the current iterate
	p    []float64 // sigmoid of z, filled on demand by fillP
	g    []float64 // per-tuple gradient coefficients, scratch for ScatterRows
}

// gbuf returns the per-tuple coefficient scratch, allocating it on first use.
func (v *fitView) gbuf() []float64 {
	if v.g == nil {
		v.g = make([]float64, len(v.z))
	}
	return v.g
}

func newFitView(x [][]float64, y []int) *fitView {
	v := &fitView{x: x, y: y, z: make([]float64, len(x))}
	v.dm, v.flat = matrix.AsDense(x)
	return v
}

// fillZ computes the affine scores of w over every row into v.z with the
// bias-first fold the scalar loops use.
func (v *fitView) fillZ(w []float64) {
	d := len(w) - 1
	if v.flat {
		v.dm.AffineInto(v.z, w[:d], w[d])
		return
	}
	for i, row := range v.x {
		z := w[d]
		for j, xv := range row {
			z += w[j] * xv
		}
		v.z[i] = z
	}
}

// fillP computes p[i] = sigmoid(z[i]) from the current scores.
func (v *fitView) fillP() {
	if v.p == nil {
		v.p = make([]float64, len(v.z))
	}
	matrix.SigmoidInto(v.p, v.z)
}

// logGradFromZ accumulates the mean-logistic-loss gradient from the
// scores already in v.z (grad pre-zeroed) — logGradOnly with the z-pass
// hoisted out. On a flat view the per-tuple coefficients are staged into
// the g scratch and scattered with the blocked kernel; because grad is
// pre-zeroed, summing the intercept terms apart from the scatter leaves
// every component's fold identical to the interleaved per-row loop.
func (v *fitView) logGradFromZ(grad []float64) {
	d := len(grad) - 1
	n := float64(len(v.x))
	gd := grad[:d]
	if v.flat {
		v.fillP()
		g := v.gbuf()
		var gInt float64
		for i, p := range v.p {
			gi := (p - float64(v.y[i])) / n
			g[i] = gi
			gInt += gi
		}
		v.dm.ScatterRows(gd, g)
		grad[d] += gInt
		return
	}
	for i, zi := range v.z {
		p := matrix.Sigmoid(zi)
		g := (p - float64(v.y[i])) / n
		matrix.AccumulateInto(gd, g, v.x[i])
		grad[d] += g
	}
}

// logLossGradFromZ is logGradFromZ also returning the mean logistic loss
// (the logLossAndGrad fold with the z-pass hoisted out).
func (v *fitView) logLossGradFromZ(grad []float64) float64 {
	d := len(grad) - 1
	n := float64(len(v.x))
	gd := grad[:d]
	var loss float64
	if v.flat {
		v.fillP()
		g := v.gbuf()
		var gInt float64
		for i, p := range v.p {
			yi := float64(v.y[i])
			loss += logLoss(p, yi)
			gi := (p - yi) / n
			g[i] = gi
			gInt += gi
		}
		v.dm.ScatterRows(gd, g)
		grad[d] += gInt
		return loss / n
	}
	for i, zi := range v.z {
		p := matrix.Sigmoid(zi)
		yi := float64(v.y[i])
		loss += logLoss(p, yi)
		g := (p - yi) / n
		matrix.AccumulateInto(gd, g, v.x[i])
		grad[d] += g
	}
	return loss / n
}

// logGradFromP accumulates the mean-logistic-loss gradient from the
// probabilities already in v.p (grad pre-zeroed); for objectives whose
// other terms also consume the sigmoid pass.
func (v *fitView) logGradFromP(grad []float64) {
	d := len(grad) - 1
	n := float64(len(v.x))
	gd := grad[:d]
	if v.flat {
		g := v.gbuf()
		var gInt float64
		for i, p := range v.p {
			gi := (p - float64(v.y[i])) / n
			g[i] = gi
			gInt += gi
		}
		v.dm.ScatterRows(gd, g)
		grad[d] += gInt
		return
	}
	for i, p := range v.p {
		g := (p - float64(v.y[i])) / n
		matrix.AccumulateInto(gd, g, v.x[i])
		grad[d] += g
	}
}

func logLoss(p, y float64) float64 {
	const eps = 1e-12
	p = matrix.Clamp(p, eps, 1-eps)
	if y >= 0.5 {
		return -ln(p)
	}
	return -ln(1 - p)
}
