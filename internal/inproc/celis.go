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
// q_s = P(Y=0 | Ŷ=1, S=s) must satisfy min_s q_s / max_s q_s >= Tau.
//
// The meta-algorithm reduces the constrained problem to group-dependent
// shifts of the decision rule on top of a calibrated score. Solving the
// Lagrangian dual over the two shift parameters is equivalent to searching
// the two per-group thresholds directly, which this implementation does
// exactly on a grid, minimizing training error subject to the constraint.
type Celis struct {
	// Tau is the performance-ratio tolerance (source-code default 0.8).
	Tau float64
	// GridSteps controls the threshold search resolution (default 40).
	GridSteps int

	base      linearBase
	clf       *classifier.LogisticRegression
	threshold [2]float64
}

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
	if c.Tau == 0 {
		c.Tau = 0.8
	}
	if c.GridSteps == 0 {
		c.GridSteps = 40
	}
	c.base.includeS = true
	x := c.base.designMatrix(train)
	c.clf = classifier.NewLogistic()
	if err := c.clf.Fit(x, train.Y, train.Weights); err != nil {
		return err
	}
	proba := classifier.ProbaAll(c.clf, x)

	// Exact grid search over per-group thresholds: pick the feasible pair
	// minimizing training error; fall back to the fairest pair if no pair
	// meets Tau.
	steps := c.GridSteps
	bestErr := math.Inf(1)
	bestRatio := -1.0
	var best, fairest [2]float64
	best = [2]float64{0.5, 0.5}
	fairest = best
	n := float64(len(x))
	for a := 1; a < steps; a++ {
		t0 := float64(a) / float64(steps)
		for b := 1; b < steps; b++ {
			t1 := float64(b) / float64(steps)
			var errs, pos0, pos1, fd0, fd1 float64
			for i := range x {
				t := t0
				if train.S[i] == 1 {
					t = t1
				}
				pred := 0
				if proba[i] >= t {
					pred = 1
				}
				if pred != train.Y[i] {
					errs++
				}
				if pred == 1 {
					if train.S[i] == 1 {
						pos1++
						if train.Y[i] == 0 {
							fd1++
						}
					} else {
						pos0++
						if train.Y[i] == 0 {
							fd0++
						}
					}
				}
			}
			if pos0 < 5 || pos1 < 5 {
				continue
			}
			q0, q1 := fd0/pos0, fd1/pos1
			lo, hi := math.Min(q0, q1), math.Max(q0, q1)
			ratio := 1.0
			if hi > 0 {
				ratio = lo / hi
			}
			if ratio > bestRatio {
				bestRatio = ratio
				fairest = [2]float64{t0, t1}
			}
			if ratio >= c.Tau && errs/n < bestErr {
				bestErr = errs / n
				best = [2]float64{t0, t1}
			}
		}
	}
	if math.IsInf(bestErr, 1) {
		best = fairest
	}
	c.threshold = best
	return nil
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

// Thresholds exposes the learned per-group decision thresholds (used by
// tests and the ablation benches).
func (c *Celis) Thresholds() [2]float64 { return c.threshold }

// NewCelis returns the evaluated Celis^pp approach.
func NewCelis() fair.Approach { return &Celis{} }
