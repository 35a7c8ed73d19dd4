// Package postproc implements the three post-processing approaches of the
// benchmark (Figure 5, "post" rows): Kam-Kar reject-option classification,
// the Hardt equalized-odds derived predictor, and Pleiss calibrated
// equalized odds. Each mechanism implements fair.Adjuster — it rewrites
// the positive-prediction probability of an already-trained classifier per
// sensitive group — and is exposed as a complete fair.Approach through
// fair.PostProcessed.
package postproc

import (
	"fmt"
	"math"

	"fairbench/internal/dataset"
	"fairbench/internal/fair"
	"fairbench/internal/lp"
	"fairbench/internal/matrix"
)

// KamKar implements Kamiran, Karim & Zhang's reject-option classification
// for demographic parity: predictions inside the low-confidence critical
// region max(p, 1-p) < theta are flipped in favor of the unprivileged
// group (unprivileged -> positive, privileged -> negative). Theta is tuned
// on the training data to the smallest value whose resulting disparate
// impact reaches the target.
type KamKar struct {
	theta float64
}

// KamKar's disparate-impact target and the cap on its critical region.
const (
	kamKarTargetDI float64 = 0.95
	kamKarMaxTheta float64 = 0.95
)

// FitAdjust tunes theta on the training probabilities.
func (k *KamKar) FitAdjust(train *dataset.Dataset, proba []float64) error {
	best, bestScore := 0.5, -1.0
	for theta := 0.5; theta <= kamKarMaxTheta+1e-9; theta += 0.01 {
		var pos, tot [2]float64
		for i, p := range proba {
			s := train.S[i]
			tot[s]++
			if k.decide(p, s, theta) == 1 {
				pos[s]++
			}
		}
		if tot[0] == 0 || tot[1] == 0 {
			break
		}
		r0, r1 := pos[0]/tot[0], pos[1]/tot[1]
		di := 1.0
		switch {
		case r1 > 0:
			di = r0 / r1
		case r0 > 0:
			di = math.Inf(1)
		}
		// Score the candidate by its symmetric parity min(DI, 1/DI): with
		// coarse base probabilities (kNN's k-fractions) tiny theta steps
		// flip whole blocks of tuples, so the tuned theta is the best
		// achievable rather than the first to enter the target band.
		score := di
		if di > 1 {
			score = 1 / di
		}
		if math.IsInf(di, 1) {
			score = 0
		}
		if score > bestScore {
			bestScore, best = score, theta
		}
		if di >= kamKarTargetDI && di <= 1/kamKarTargetDI {
			break
		}
	}
	k.theta = best
	return nil
}

// decide applies the reject-option rule at a given theta.
func (k *KamKar) decide(p float64, s int, theta float64) int {
	conf := math.Max(p, 1-p)
	if conf < theta {
		// Critical region: favor the unprivileged group.
		if s == 0 {
			return 1
		}
		return 0
	}
	if p >= 0.5 {
		return 1
	}
	return 0
}

// AdjustedProba implements fair.Adjuster (deterministic rule: 0 or 1).
func (k *KamKar) AdjustedProba(p float64, s int) float64 {
	return float64(k.decide(p, s, k.theta))
}

// NewKamKar returns the evaluated Kam-Kar^dp approach.
func NewKamKar(model string, seed int64) fair.Approach {
	return &fair.PostProcessed{
		ApproachName: "KamKar-DP",
		Target:       []fair.Metric{fair.MetricDI},
		Mechanism:    &KamKar{},
		Model:        model,
		IncludeS:     true,
		Seed:         seed,
	}
}

// Hardt implements Hardt, Price & Srebro's equalized-odds post-processing:
// a derived predictor Ỹ = g(Ŷ, S) defined by four mixing probabilities
//
//	α_s = P(Ỹ=1 | Ŷ=1, S=s),  β_s = P(Ỹ=1 | Ŷ=0, S=s)
//
// chosen by a linear program that equalizes the derived TPR and FPR across
// groups while minimizing the expected error.
type Hardt struct {
	alpha, beta [2]float64
}

// FitAdjust solves the equalized-odds LP on the training predictions. The
// base rates are "soft": TPR̂_s = E[p | Y=1, S=s] and FPR̂_s = E[p | Y=0,
// S=s], treating the base as the randomized classifier its probabilities
// describe. Soft rates are never exactly 0 or 1, which removes the LP's
// degenerate corner when a base model emits no positives for one group
// (there the hard rates force TPR = FPR and the only "fair" solution is
// the useless constant classifier).
func (h *Hardt) FitAdjust(train *dataset.Dataset, proba []float64) error {
	var tp, fp, pn, nn [2]float64 // soft positives and masses per group
	for i, p := range proba {
		s := train.S[i]
		if train.Y[i] == 1 {
			pn[s]++
			tp[s] += p
		} else {
			nn[s]++
			fp[s] += p
		}
	}
	var tpr, fpr [2]float64
	for s := 0; s < 2; s++ {
		if pn[s] > 0 {
			tpr[s] = tp[s] / pn[s]
		}
		if nn[s] > 0 {
			fpr[s] = fp[s] / nn[s]
		}
	}
	// Variables x = [α0, α1, β0, β1].
	// Derived rates: TPR_s = α_s·tpr_s + β_s·(1-tpr_s)
	//                FPR_s = α_s·fpr_s + β_s·(1-fpr_s)
	// Objective: balanced expected error — each class contributes half the
	// loss mass regardless of prevalence:
	//   Σ_s [ ½·P(S=s|Y=1)·(1-TPR_s) + ½·P(S=s|Y=0)·FPR_s ].
	// Plain expected error on a heavily imbalanced base (Adult: 24%
	// positives) is minimized by the trivial all-negative predictor, which
	// satisfies equalized odds vacuously; balancing the classes keeps the
	// derived predictor informative.
	posTotal := pn[0] + pn[1]
	negTotal := nn[0] + nn[1]
	c := make([]float64, 4)
	for s := 0; s < 2; s++ {
		wPos, wNeg := 0.0, 0.0
		if posTotal > 0 {
			wPos = 0.5 * pn[s] / posTotal
		}
		if negTotal > 0 {
			wNeg = 0.5 * nn[s] / negTotal
		}
		c[s] += -wPos*tpr[s] + wNeg*fpr[s]
		c[2+s] += -wPos*(1-tpr[s]) + wNeg*(1-fpr[s])
	}
	rows := []lp.Constraint{
		// TPR_0 = TPR_1
		{A: []float64{tpr[0], -tpr[1], 1 - tpr[0], -(1 - tpr[1])}, Rel: lp.EQ, B: 0},
		// FPR_0 = FPR_1
		{A: []float64{fpr[0], -fpr[1], 1 - fpr[0], -(1 - fpr[1])}, Rel: lp.EQ, B: 0},
	}
	for j := 0; j < 4; j++ {
		a := make([]float64, 4)
		a[j] = 1
		rows = append(rows, lp.Constraint{A: a, Rel: lp.LE, B: 1})
	}
	x, _, err := lp.Solve(lp.Problem{C: c, Rows: rows})
	if err != nil {
		return fmt.Errorf("hardt: %w", err)
	}
	h.alpha = [2]float64{matrix.Clamp(x[0], 0, 1), matrix.Clamp(x[1], 0, 1)}
	h.beta = [2]float64{matrix.Clamp(x[2], 0, 1), matrix.Clamp(x[3], 0, 1)}
	return nil
}

// AdjustedProba implements fair.Adjuster: the derived predictor's positive
// probability α_s·p + β_s·(1-p), mixing over the base's randomized
// prediction.
func (h *Hardt) AdjustedProba(p float64, s int) float64 {
	return h.alpha[s]*p + h.beta[s]*(1-p)
}

// NewHardt returns the evaluated Hardt^eo approach.
func NewHardt(model string, seed int64) fair.Approach {
	return &fair.PostProcessed{
		ApproachName: "Hardt-EO",
		Target:       []fair.Metric{fair.MetricTPRB, fair.MetricTNRB},
		Mechanism:    &Hardt{},
		Model:        model,
		IncludeS:     true,
		Seed:         seed,
	}
}

// Pleiss implements Pleiss et al.'s calibrated equalized odds for equal
// opportunity (the evaluated Pleiss^eop variant equalizes TPR): within the
// favored group — the one with the higher base TPR — predictions are
// withheld with probability alpha and replaced by a base-rate coin flip,
// lowering that group's TPR to the unfavored group's level while keeping
// the classifier calibrated.
type Pleiss struct {
	alpha    float64
	favored  int
	baseRate [2]float64
}

// FitAdjust computes the withholding probability from the per-group TPRs.
func (pl *Pleiss) FitAdjust(train *dataset.Dataset, proba []float64) error {
	var tp, pn, pos, tot [2]float64
	for i, p := range proba {
		s := train.S[i]
		tot[s]++
		pred := 0
		if p >= 0.5 {
			pred = 1
		}
		if train.Y[i] == 1 {
			pn[s]++
			pos[s]++
			if pred == 1 {
				tp[s]++
			}
		}
	}
	var tpr [2]float64
	for s := 0; s < 2; s++ {
		if pn[s] > 0 {
			tpr[s] = tp[s] / pn[s]
		}
		if tot[s] > 0 {
			pl.baseRate[s] = pos[s] / tot[s]
		}
	}
	pl.favored = 0
	if tpr[1] > tpr[0] {
		pl.favored = 1
	}
	f, u := pl.favored, 1-pl.favored
	den := tpr[f] - pl.baseRate[f]
	if math.Abs(den) < 1e-9 {
		pl.alpha = 0
		return nil
	}
	pl.alpha = matrix.Clamp((tpr[f]-tpr[u])/den, 0, 1)
	return nil
}

// AdjustedProba implements fair.Adjuster: favored-group predictions are
// mixed with the group base rate with weight alpha.
func (pl *Pleiss) AdjustedProba(p float64, s int) float64 {
	hard := 0.0
	if p >= 0.5 {
		hard = 1
	}
	if s != pl.favored {
		return hard
	}
	return (1-pl.alpha)*hard + pl.alpha*pl.baseRate[s]
}

// NewPleiss returns the evaluated Pleiss^eop approach.
func NewPleiss(model string, seed int64) fair.Approach {
	return &fair.PostProcessed{
		ApproachName: "Pleiss-EOP",
		Target:       []fair.Metric{fair.MetricTPRB},
		Mechanism:    &Pleiss{},
		Model:        model,
		IncludeS:     true,
		Seed:         seed,
	}
}
