package inproc

import (
	"fmt"
	"math"

	"fairbench/internal/classifier"
	"fairbench/internal/dataset"
	"fairbench/internal/fair"
)

// Celis implements Celis et al.'s meta-algorithm for classification with
// fairness constraints, instantiated — as in the paper's evaluation — for
// predictive parity (Celis^pp): the false discovery rate
// q_s = P(Y=0 | Ŷ=1, S=s) must satisfy min_s q_s / max_s q_s >= τ.
//
// The meta-algorithm reduces the constrained problem to group-dependent
// shifts of the decision rule on top of a calibrated score. Solving the
// Lagrangian dual over the two shift parameters is equivalent to searching
// the two per-group thresholds directly, which this implementation does
// exactly on a grid, minimizing training error subject to the constraint.
type Celis struct {
	base      linearBase
	clf       *classifier.LogisticRegression
	threshold [2]float64
}

// Celis's performance-ratio tolerance τ (the authors' source-code
// default) and the threshold grid's resolution.
const (
	celisTau       float64 = 0.8
	celisGridSteps int     = 40
)

// Name implements fair.Approach.
func (c *Celis) Name() string { return "Celis-PP" }

// Stage implements fair.Approach.
func (c *Celis) Stage() fair.Stage { return fair.StageIn }

// Targets implements fair.Approach: the enforced notion — predictive
// parity (false-discovery-rate parity) — has no counterpart among the five
// evaluated metrics, so none is marked as optimized; the paper's Figure 7
// likewise notes that performance on non-targeted metrics is unpredictable.
func (c *Celis) Targets() []fair.Metric { return nil }

// Fit implements fair.Approach.
func (c *Celis) Fit(train *dataset.Dataset) error {
	c.base.includeS = true
	x := c.base.designMatrix(train)
	c.clf = classifier.NewLogistic()
	if err := c.clf.Fit(x, train.Y, train.Weights); err != nil {
		return err
	}
	proba := classifier.ProbaAll(c.clf, x)
	c.threshold = searchThresholds(proba, train.S, train.Y, celisGridSteps, celisTau)
	return nil
}

// groupTally holds one group's training errors, predicted positives and
// false discoveries at one grid threshold: exact integer counts, held in
// float64 as the ratios consume them.
type groupTally struct{ errs, pos, fd float64 }

// searchThresholds is Celis's exact grid search over per-group thresholds
// t_s = k/steps, 0 < k < steps: among the pairs that give both groups at
// least 5 predicted positives, it keeps the first, in (t0, t1) order, with
// the lowest training error whose FDR ratio meets tau, and falls back to
// the first pair with the highest ratio if none does. A tuple's prediction
// depends only on its own group's threshold, so each group's counts are
// tallied once per threshold and a pair's counts are the two groups'
// sums, equal to a per-pair scan of the tuples because every count is an
// integer: O(steps·n + steps²) instead of O(steps²·n).
func searchThresholds(proba []float64, s, y []int, steps int, tau float64) [2]float64 {
	var tally [2][]groupTally
	tally[0] = make([]groupTally, max(steps, 1))
	tally[1] = make([]groupTally, max(steps, 1))
	for k := 1; k < steps; k++ {
		t := float64(k) / float64(steps)
		for i, p := range proba {
			g := &tally[0][k]
			if s[i] == 1 {
				g = &tally[1][k]
			}
			pred := 0
			if p >= t {
				pred = 1
			}
			if pred != y[i] {
				g.errs++
			}
			if pred == 1 {
				g.pos++
				if y[i] == 0 {
					g.fd++
				}
			}
		}
	}

	bestErr := math.Inf(1)
	bestRatio := -1.0
	var best, fairest [2]float64
	best = [2]float64{0.5, 0.5}
	fairest = best
	n := float64(len(proba))
	for a := 1; a < steps; a++ {
		t0 := float64(a) / float64(steps)
		g0 := tally[0][a]
		for b := 1; b < steps; b++ {
			t1 := float64(b) / float64(steps)
			g1 := tally[1][b]
			if g0.pos < 5 || g1.pos < 5 {
				continue
			}
			q0, q1 := g0.fd/g0.pos, g1.fd/g1.pos
			lo, hi := math.Min(q0, q1), math.Max(q0, q1)
			ratio := 1.0
			if hi > 0 {
				ratio = lo / hi
			}
			if ratio > bestRatio {
				bestRatio = ratio
				fairest = [2]float64{t0, t1}
			}
			errs := g0.errs + g1.errs
			if ratio >= tau && errs/n < bestErr {
				bestErr = errs / n
				best = [2]float64{t0, t1}
			}
		}
	}
	if math.IsInf(bestErr, 1) {
		best = fairest
	}
	return best
}

// Predict implements fair.Approach.
func (c *Celis) Predict(test *dataset.Dataset) ([]int, error) {
	if c.clf == nil {
		return nil, fmt.Errorf("%s: not fitted", c.Name())
	}
	return c.labels(test, false), nil
}

// PredictFlipped implements fair.Approach: a flipped tuple is scored with
// S flipped and thresholded at its flipped group's threshold.
func (c *Celis) PredictFlipped(test *dataset.Dataset, yhat []int) (factual, flipped []int) {
	return yhat, c.labels(test, true)
}

// labels thresholds every tuple's probability at its classifier-input
// group's threshold, with S flipped when flipS.
func (c *Celis) labels(test *dataset.Dataset, flipS bool) []int {
	x := c.base.inputs(test, flipS)
	p := make([]float64, x.Rows)
	c.clf.PredictProbaInto(p, x)
	out := make([]int, len(p))
	for i, s := range test.S {
		if flipS {
			s = 1 - s
		}
		if p[i] >= c.threshold[s] {
			out[i] = 1
		}
	}
	return out
}

// NewCelis returns the evaluated Celis^pp approach.
func NewCelis() fair.Approach { return &Celis{} }
