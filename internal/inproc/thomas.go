package inproc

import (
	"fmt"
	"math"

	"fairbench/internal/dataset"
	"fairbench/internal/fair"
	"fairbench/internal/matrix"
	"fairbench/internal/optimize"
	"fairbench/internal/rng"
	"fairbench/internal/stats"
)

// ThomasNotion selects the fairness notion a Thomas instance enforces.
type ThomasNotion int

const (
	// ThomasDP enforces demographic parity.
	ThomasDP ThomasNotion = iota
	// ThomasEO enforces equalized odds (both TPR and TNR balance).
	ThomasEO
)

// Thomas implements Thomas et al.'s Seldonian framework: the training data
// is split into a candidate-selection set and a safety set. Candidate
// selection minimizes the prediction loss plus a barrier on the predicted
// upper bound of the fairness violation; the safety test then certifies —
// via a Hoeffding (1-delta)-confidence upper bound computed on held-out
// data — that the worst-case violation stays below the threshold. If the
// test fails, the candidate is rejected and the search resumes with a
// stronger barrier; if no candidate ever passes, the fairest rejected
// candidate is returned (flagged by NoSolutionFound).
type Thomas struct {
	Notion ThomasNotion
	// MaxAttempts bounds the candidate search (default 5).
	MaxAttempts int
	// Seed drives the candidate/safety split.
	Seed int64

	base linearBase
	// NoSolutionFound records that every candidate failed the safety test
	// and the returned model is the best-effort fallback.
	NoSolutionFound bool
}

// Thomas's safety test: its confidence parameter δ (the paper's 0.05)
// and the allowed violation.
const (
	thomasDelta     float64 = 0.05
	thomasThreshold float64 = 0.05
)

// Name implements fair.Approach.
func (t *Thomas) Name() string {
	if t.Notion == ThomasEO {
		return "Thomas-EO"
	}
	return "Thomas-DP"
}

// Stage implements fair.Approach.
func (t *Thomas) Stage() fair.Stage { return fair.StageIn }

// Targets implements fair.Approach.
func (t *Thomas) Targets() []fair.Metric {
	if t.Notion == ThomasEO {
		return []fair.Metric{fair.MetricTPRB, fair.MetricTNRB}
	}
	return []fair.Metric{fair.MetricDI}
}

// violations returns the smooth per-notion violation terms of weights w on
// rows x: probability-scale group gaps whose absolute values the barrier
// penalizes and the safety test bounds.
func (t *Thomas) violations(w []float64, x matrix.Dense, y, s []int) []float64 {
	d := len(w) - 1
	var pos, tot [2]float64
	var tpSum, tpN, tnSum, tnN [2]float64
	for i := range x.Rows {
		z := w[d]
		for j, v := range x.Row(i) {
			z += w[j] * v
		}
		p := matrix.Sigmoid(z)
		g := s[i]
		pos[g] += p
		tot[g]++
		if y[i] == 1 {
			tpSum[g] += p
			tpN[g]++
		} else {
			tnSum[g] += 1 - p
			tnN[g]++
		}
	}
	rate := func(sum, n [2]float64) float64 {
		a, b := 0.0, 0.0
		if n[0] > 0 {
			a = sum[0] / n[0]
		}
		if n[1] > 0 {
			b = sum[1] / n[1]
		}
		return b - a
	}
	if t.Notion == ThomasDP {
		return []float64{rate(pos, tot)}
	}
	return []float64{rate(tpSum, tpN), rate(tnSum, tnN)}
}

// safetyTest computes Hoeffding (1-delta) upper bounds on each violation's
// absolute value over the safety set and reports whether all stay below
// the threshold.
func (t *Thomas) safetyTest(w []float64, x matrix.Dense, y, s []int) bool {
	viols := t.violations(w, x, y, s)
	// Conservative per-group counts for the bound width.
	n0, n1 := 0, 0
	for _, si := range s {
		if si == 1 {
			n1++
		} else {
			n0++
		}
	}
	nMin := n0
	if n1 < nMin {
		nMin = n1
	}
	if nMin == 0 {
		return false
	}
	// The Hoeffding width is the bound's irreducible resolution: on small
	// safety sets (German) no candidate could ever certify a threshold
	// below it, so the acceptable level is the threshold or the resolution,
	// whichever is larger.
	width := math.Sqrt(math.Log(1/thomasDelta) / (2 * float64(nMin)))
	accept := math.Max(thomasThreshold, 1.5*width)
	for _, v := range viols {
		if stats.HoeffdingUpper(math.Abs(v), nMin, 0, 1, thomasDelta)-width > accept {
			return false
		}
	}
	return true
}

// Fit implements fair.Approach.
func (t *Thomas) Fit(train *dataset.Dataset) error {
	if t.MaxAttempts == 0 {
		t.MaxAttempts = 5
	}
	t.base.includeS = false
	x := t.base.designMatrix(train)
	y, s := train.Y, train.S
	n, dim := x.Rows, x.Cols

	// Candidate/safety split (60/40). sel copies the tuples at idx, in
	// idx's order: their rows into one tightly packed matrix, their labels
	// and groups into slices. On the candidate set, the loss gradient, the
	// violation terms and the barrier gradient all read one affine/sigmoid
	// pass per Adam iteration.
	g := rng.New(t.Seed)
	perm := g.Perm(n)
	cut := n * 3 / 5
	candIdx, safeIdx := perm[:cut], perm[cut:]
	sel := func(idx []int) (matrix.Dense, []int, []int) {
		xs := matrix.NewDense(len(idx), dim)
		ys := make([]int, len(idx))
		ss := make([]int, len(idx))
		for k, i := range idx {
			copy(xs.Row(k), x.Row(i))
			ys[k], ss[k] = y[i], s[i]
		}
		return *xs, ys, ss
	}
	cx, cy, cs := sel(candIdx)
	sx, sy, ssv := sel(safeIdx)
	view := newFitView(cx, cy)
	counts := barrierCounts(cy, cs)
	coef := make([]float64, len(cy))

	barrier := 5.0
	var wBest []float64
	bestViol := math.Inf(1)
	t.NoSolutionFound = true
	w := make([]float64, dim+1)
	for attempt := 0; attempt < t.MaxAttempts; attempt++ {
		// Gradient-only: Adam discards the value, so neither the log-loss
		// terms nor the barrier value is materialized — only their
		// gradients.
		obj := func(wv, grad []float64) float64 {
			for j := range grad {
				grad[j] = 0
			}
			view.fillZ(wv)
			view.fillP()
			view.logGradFromP(grad)
			// Barrier on the squared smooth violations, with the analytic
			// chain-rule gradient through the per-sample sigmoids.
			viols := t.violationsFromP(view.p, cy, cs)
			t.addViolationGradFromP(view.p, &view.dm, cy, cs, counts, viols, barrier, coef, grad)
			return 0
		}
		w, _ = optimize.Adam(obj, w, optimize.AdamConfig{MaxIter: 400})

		if t.safetyTest(w, sx, sy, ssv) {
			t.base.w = w
			t.NoSolutionFound = false
			return nil
		}
		// Track the fairest rejected candidate as fallback.
		viols := t.violations(w, sx, sy, ssv)
		var worst float64
		for _, v := range viols {
			worst = math.Max(worst, math.Abs(v))
		}
		if worst < bestViol {
			bestViol = worst
			wBest = append([]float64(nil), w...)
		}
		barrier *= 4
	}
	t.base.w = wBest
	return nil
}

// violationsFromP computes the same smooth violation terms as violations
// but reads per-tuple probabilities already materialized in p, preserving
// the accumulation order of the pass it replaces.
func (t *Thomas) violationsFromP(p []float64, y, s []int) []float64 {
	var pos, tot [2]float64
	var tpSum, tpN, tnSum, tnN [2]float64
	for i, pi := range p {
		g := s[i]
		pos[g] += pi
		tot[g]++
		if y[i] == 1 {
			tpSum[g] += pi
			tpN[g]++
		} else {
			tnSum[g] += 1 - pi
			tnN[g]++
		}
	}
	rate := func(sum, n [2]float64) float64 {
		a, b := 0.0, 0.0
		if n[0] > 0 {
			a = sum[0] / n[0]
		}
		if n[1] > 0 {
			b = sum[1] / n[1]
		}
		return b - a
	}
	if t.Notion == ThomasDP {
		return []float64{rate(pos, tot)}
	}
	return []float64{rate(tpSum, tpN), rate(tnSum, tnN)}
}

// barrierCounts returns the candidate set's per-group tuple counts: all
// tuples, positives and negatives, the group means' denominators.
func barrierCounts(y, s []int) (counts [3][2]float64) {
	for i, g := range s {
		counts[0][g]++
		if y[i] == 1 {
			counts[1][g]++
		} else {
			counts[2][g]++
		}
	}
	return counts
}

// addViolationGradFromP adds the analytic gradient of barrier * sum(v^2)
// where each v is a difference of group-mean sigmoid terms; the per-tuple
// sigmoids are read from p rather than recomputed from the weights, and
// counts are barrierCounts of y and s. Each tuple's coefficient is staged
// in coef and all of them are scattered in one pass, intercept last.
//
// The scatter also adds the zero coefficients the row-by-row loop it
// replaced skipped, which changes no bit: grad's components are sums that
// started at +0, so none is -0, and adding 0·x (±0, for the finite
// standardized design) to a value that is not -0 returns that value.
func (t *Thomas) addViolationGradFromP(p []float64, dm *matrix.Design, y, s []int, counts [3][2]float64, viols []float64, barrier float64, coef, grad []float64) {
	tot, tpN, tnN := counts[0], counts[1], counts[2]
	for i, pi := range p {
		dp := pi * (1 - pi)
		g := s[i]
		sign := 1.0
		if g == 0 {
			sign = -1
		}
		var c float64
		if t.Notion == ThomasDP {
			if tot[g] > 0 {
				c = 2 * barrier * viols[0] * sign * dp / tot[g]
			}
		} else {
			if y[i] == 1 && tpN[g] > 0 {
				c = 2 * barrier * viols[0] * sign * dp / tpN[g]
			} else if y[i] == 0 && tnN[g] > 0 {
				// TNR term uses 1-p, flipping the derivative sign.
				c = -2 * barrier * viols[1] * sign * dp / tnN[g]
			}
		}
		coef[i] = c
	}
	dm.ScatterAffine(grad, coef)
}

// Predict implements fair.Approach.
func (t *Thomas) Predict(test *dataset.Dataset) ([]int, error) {
	if t.base.w == nil {
		return nil, fmt.Errorf("%s: not fitted", t.Name())
	}
	return t.base.predictAll(test), nil
}

// PredictFlipped implements fair.Approach: S is no classifier input.
func (t *Thomas) PredictFlipped(_ *dataset.Dataset, yhat []int) (factual, flipped []int) {
	return yhat, yhat
}

// NewThomasDP returns the evaluated Thomas^dp approach.
func NewThomasDP(seed int64) fair.Approach { return &Thomas{Notion: ThomasDP, Seed: seed} }

// NewThomasEO returns the evaluated Thomas^eo approach.
func NewThomasEO(seed int64) fair.Approach { return &Thomas{Notion: ThomasEO, Seed: seed} }
