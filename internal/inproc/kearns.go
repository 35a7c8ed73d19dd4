package inproc

import (
	"fmt"
	"math"

	"fairbench/internal/dataset"
	"fairbench/internal/fair"
	"fairbench/internal/matrix"
	"fairbench/internal/optimize"
)

// Kearns implements Kearns et al.'s subgroup-fairness learner for
// predictive equality (the evaluated Kearns^pe variant): the false
// positive rate of every subgroup in a rich class G must approximately
// match the population FPR. Training is the fictitious-play dynamic of the
// original: a learner best-responds with a cost-sensitive classifier while
// an auditor finds the currently worst-violating subgroup and reweights
// it; the final model averages the learner's iterates.
//
// The subgroup class G contains conjunctions of up to two conditions over
// the sensitive attribute and the (binarized) dataset attributes.
type Kearns struct {
	// Rounds is the number of fictitious-play iterations (default 8).
	Rounds int

	base    linearBase
	models  [][]float64 // learner iterates (weights incl. intercept)
	subDefs []subgroup
}

// Kearns's violation tolerance γ (the authors' source-code default) and
// the factor by which the auditor reweights a violating subgroup.
const (
	kearnsGamma float64 = 0.005
	kearnsEta   float64 = 2.0
)

type subgroup struct {
	desc  string
	match func(x []float64, s int) bool
}

// Name implements fair.Approach.
func (k *Kearns) Name() string { return "Kearns-PE" }

// Stage implements fair.Approach.
func (k *Kearns) Stage() fair.Stage { return fair.StageIn }

// Targets implements fair.Approach: predictive equality equalizes FPR,
// i.e. the TNR balance.
func (k *Kearns) Targets() []fair.Metric { return []fair.Metric{fair.MetricTNRB} }

// buildSubgroups enumerates the audit class over the training data:
// {S=0, S=1} × {attr above/below median, each categorical value}, plus the
// single-condition groups.
func (k *Kearns) buildSubgroups(train *dataset.Dataset) []subgroup {
	var conds []subgroup
	for si := 0; si < 2; si++ {
		s := si
		conds = append(conds, subgroup{
			desc:  fmt.Sprintf("S=%d", s),
			match: func(_ []float64, sv int) bool { return sv == s },
		})
	}
	for j, a := range train.Attrs {
		j := j
		if a.Kind == dataset.Numeric {
			col := train.Column(j)
			var sum float64
			for _, v := range col {
				sum += v
			}
			med := sum / float64(len(col))
			conds = append(conds, subgroup{
				desc:  fmt.Sprintf("%s<=%.3g", a.Name, med),
				match: func(x []float64, _ int) bool { return x[j] <= med },
			})
		} else {
			for v := 0; v < a.Card && v < 4; v++ {
				v := float64(v)
				conds = append(conds, subgroup{
					desc:  fmt.Sprintf("%s=%v", a.Name, v),
					match: func(x []float64, _ int) bool { return x[j] == v },
				})
			}
		}
	}
	// Pairwise conjunctions of a sensitive condition with an attribute
	// condition (the "gerrymandered" subgroups of the paper's title).
	out := append([]subgroup(nil), conds...)
	for si := 0; si < 2; si++ {
		s := si
		for _, c := range conds[2:] {
			c := c
			out = append(out, subgroup{
				desc: fmt.Sprintf("S=%d & %s", s, c.desc),
				match: func(x []float64, sv int) bool {
					return sv == s && c.match(x, sv)
				},
			})
		}
	}
	return out
}

// Fit implements fair.Approach.
func (k *Kearns) Fit(train *dataset.Dataset) error {
	if k.Rounds == 0 {
		k.Rounds = 8
	}
	k.base.includeS = true
	x := k.base.designMatrix(train)
	y := train.Y
	n, dim := x.Rows, x.Cols
	k.subDefs = k.buildSubgroups(train)

	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1
	}
	view := newFitView(x, y)
	// Subgroup membership never changes across rounds, so the match
	// closures run once per (subgroup, tuple) here instead of once per
	// round in the auditor's scan.
	masks := make([][]bool, len(k.subDefs))
	for gi, sg := range k.subDefs {
		m := make([]bool, n)
		for i := range m {
			m[i] = sg.match(train.X[i], train.S[i])
		}
		masks[gi] = m
	}
	k.models = nil
	w := make([]float64, dim+1)
	// Running per-tuple sum of sigmoid scores across learner iterates.
	// Each round adds only the newest model's pass, in model-ascending
	// order — the same fold as rescoring every iterate from scratch, at
	// O(rounds) instead of O(rounds²) affine passes.
	scoreSum := make([]float64, n)
	preds := make([]int, n)
	for round := 0; round < k.Rounds; round++ {
		// Learner best response: weighted logistic regression. The tuple
		// weights are fixed within a round.
		w, _ = optimize.Adam(view.weightedLogitGrad(weights), w, optimize.AdamConfig{MaxIter: 250})
		k.models = append(k.models, append([]float64(nil), w...))

		// Auditor: find the subgroup with the largest alpha-weighted FPR
		// violation under the averaged model so far.
		view.fillZ(w)
		view.fillP()
		for i, p := range view.p {
			scoreSum[i] += p
		}
		nm := float64(len(k.models))
		for i, s := range scoreSum {
			if s/nm >= 0.5 {
				preds[i] = 1
			} else {
				preds[i] = 0
			}
		}
		popFP, popN := 0.0, 0.0
		for i := range y {
			if y[i] == 0 {
				popN++
				if preds[i] == 1 {
					popFP++
				}
			}
		}
		popFPR := 0.0
		if popN > 0 {
			popFPR = popFP / popN
		}
		worst := -1
		worstViol := kearnsGamma
		var worstDir float64
		for gi := range k.subDefs {
			mask := masks[gi]
			var fp, neg, size float64
			for i := range y {
				if !mask[i] {
					continue
				}
				size++
				if y[i] == 0 {
					neg++
					if preds[i] == 1 {
						fp++
					}
				}
			}
			if neg < 10 {
				continue
			}
			alpha := size / float64(n)
			fpr := fp / neg
			viol := alpha * math.Abs(fpr-popFPR)
			if viol > worstViol {
				worstViol = viol
				worst = gi
				worstDir = fpr - popFPR
			}
		}
		if worst < 0 {
			break // within tolerance everywhere
		}
		// Reweight: raise the cost of negatives in the violating subgroup
		// (to push its FPR down) or lower it (to let it rise).
		mask := masks[worst]
		for i := range y {
			if y[i] == 0 && mask[i] {
				if worstDir > 0 {
					weights[i] *= kearnsEta
				} else {
					weights[i] /= kearnsEta
				}
			}
		}
		// Renormalize the negatives' total weight back to the negative
		// count so the fictitious play only shifts FPR pressure between
		// subgroups without shifting the global class prior (unchecked
		// prior drift collapses the learner to a constant classifier).
		var negSum, negN float64
		for i := range y {
			if y[i] == 0 {
				negSum += weights[i]
				negN++
			}
		}
		if negSum > 0 {
			scale := negN / negSum
			for i := range y {
				if y[i] == 0 {
					weights[i] = math.Min(8, math.Max(1.0/8, weights[i]*scale))
				}
			}
		}
	}
	return nil
}

// Predict implements fair.Approach.
func (k *Kearns) Predict(test *dataset.Dataset) ([]int, error) {
	if len(k.models) == 0 {
		return nil, fmt.Errorf("%s: not fitted", k.Name())
	}
	return averageLabels(k.models, k.base.inputs(test, false)), nil
}

// PredictFlipped implements fair.Approach.
func (k *Kearns) PredictFlipped(test *dataset.Dataset, yhat []int) (factual, flipped []int) {
	return yhat, averageLabels(k.models, k.base.inputs(test, true))
}

// averageLabels labels every row of x by thresholding the models' mean
// probability at 0.5, the randomized ensemble's expected prediction.
func averageLabels(models [][]float64, x matrix.Dense) []int {
	out := make([]int, x.Rows)
	for i := range out {
		row := x.Row(i)
		var sum float64
		for _, w := range models {
			d := len(w) - 1
			z := w[d]
			for j, v := range row {
				if j < d {
					z += w[j] * v
				}
			}
			sum += matrix.Sigmoid(z)
		}
		if sum/float64(len(models)) >= 0.5 {
			out[i] = 1
		}
	}
	return out
}

// NewKearns returns the evaluated Kearns^pe approach.
func NewKearns() fair.Approach { return &Kearns{} }
