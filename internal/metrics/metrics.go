// Package metrics implements the paper's evaluation metrics: the four
// correctness metrics of Figure 2 (accuracy, precision, recall, F1) and the
// five fairness metrics of Figure 4 (Disparate Impact, True Positive Rate
// Balance, True Negative Rate Balance, Individual Discrimination, Total
// Effect), plus the appendix's Natural Direct/Indirect Effects.
//
// It also applies the paper's normalizations (Section 4.1): DI* =
// min(DI, 1/DI), and 1-|TPRB|, 1-|TNRB|, 1-ID, 1-|TE| so every fairness
// score shares the same [0,1] range with 1 = completely fair.
package metrics

import (
	"math"

	"fairbench/internal/causal"
	"fairbench/internal/dataset"
	"fairbench/internal/stats"
)

// Correctness holds the Figure 2 metrics.
type Correctness struct {
	Accuracy, Precision, Recall, F1 float64
}

// ComputeCorrectness tallies the correctness metrics for predictions yhat
// against ground truth y.
//
// Zero-division convention: every ratio whose denominator is empty is
// reported as 0, never NaN — empty input gives Accuracy 0, no positive
// predictions (TP+FP == 0) gives Precision 0, no positive labels
// (TP+FN == 0) gives Recall 0, and Precision+Recall == 0 gives F1 0.
// Downstream code (aggregation post-passes, the report tables, JSON
// envelopes for sharded runs) relies on these metrics being finite;
// TestCorrectnessZeroDenominators pins the convention.
func ComputeCorrectness(y, yhat []int) Correctness {
	c := stats.Count(y, yhat)
	var out Correctness
	if n := c.N(); n > 0 {
		out.Accuracy = float64(c.TP+c.TN) / float64(n)
	}
	if c.TP+c.FP > 0 {
		out.Precision = float64(c.TP) / float64(c.TP+c.FP)
	}
	if c.TP+c.FN > 0 {
		out.Recall = float64(c.TP) / float64(c.TP+c.FN)
	}
	if out.Precision+out.Recall > 0 {
		out.F1 = 2 * out.Precision * out.Recall / (out.Precision + out.Recall)
	}
	return out
}

// Fairness holds the raw Figure 4 metrics (and NDE/NIE from the appendix).
// Raw values carry sign/direction; see Normalized for the paper's
// presentation scale.
type Fairness struct {
	DI   float64 // ratio, 1 = fair, <1 favors privileged
	TPRB float64 // difference, 0 = fair
	TNRB float64 // difference, 0 = fair
	ID   float64 // fraction, 0 = fair
	TE   float64 // difference, 0 = fair
	NDE  float64
	NIE  float64
}

// GroupRates summarizes prediction statistics per sensitive group.
type GroupRates struct {
	// PosRate is P(Ŷ=1 | S=s) for s = 0, 1.
	PosRate [2]float64
	// TPR and TNR per group.
	TPR, TNR [2]float64
	// Confusion matrices per group.
	Confusion [2]stats.Confusion
}

// ComputeGroupRates tallies per-group prediction statistics. A group
// absent from the data keeps zero-valued rates (PosRate, TPR, TNR all 0),
// following the same finite-by-convention rule as ComputeCorrectness;
// only DisparateImpact maps a vanishing privileged positive rate to +Inf,
// because DI's range is [0, ∞) by definition and Normalize folds the
// infinity to a DI* of 0.
func ComputeGroupRates(d *dataset.Dataset, yhat []int) GroupRates {
	var gr GroupRates
	var pos, tot [2]float64
	for i := range yhat {
		s := d.S[i]
		gr.Confusion[s].Add(d.Y[i], yhat[i])
		tot[s]++
		if yhat[i] == 1 {
			pos[s]++
		}
	}
	for s := 0; s < 2; s++ {
		if tot[s] > 0 {
			gr.PosRate[s] = pos[s] / tot[s]
		}
		gr.TPR[s] = gr.Confusion[s].TPR()
		gr.TNR[s] = gr.Confusion[s].TNR()
	}
	return gr
}

// DisparateImpact returns P(Ŷ=1|S=0) / P(Ŷ=1|S=1) (Figure 4 row 1). A
// zero privileged positive rate with a positive unprivileged rate yields
// +Inf, matching the metric's [0, ∞) range.
func DisparateImpact(d *dataset.Dataset, yhat []int) float64 {
	return ComputeGroupRates(d, yhat).DI()
}

// DI derives Disparate Impact from already-tallied group rates.
func (gr GroupRates) DI() float64 {
	if gr.PosRate[1] == 0 {
		if gr.PosRate[0] == 0 {
			return 1 // no positives anywhere: vacuously fair
		}
		return math.Inf(1)
	}
	return gr.PosRate[0] / gr.PosRate[1]
}

// TPRBalance returns TPR(S=1) - TPR(S=0) (Figure 4 row 2).
func TPRBalance(d *dataset.Dataset, yhat []int) float64 {
	gr := ComputeGroupRates(d, yhat)
	return gr.TPR[1] - gr.TPR[0]
}

// TNRBalance returns TNR(S=1) - TNR(S=0) (Figure 4 row 3).
func TNRBalance(d *dataset.Dataset, yhat []int) float64 {
	gr := ComputeGroupRates(d, yhat)
	return gr.TNR[1] - gr.TNR[0]
}

// Flipper labels a dataset for the ID metric: given yhat, the model's
// labels on d, it returns the labels at each tuple's own S (factual) and
// with each tuple's S flipped, all other attributes held fixed
// (flipped). Every fair.Approach is a Flipper.
type Flipper interface {
	PredictFlipped(d *dataset.Dataset, yhat []int) (factual, flipped []int)
}

// IndividualDiscrimination returns the fraction of tuples whose label
// changes when the sensitive attribute is flipped with all other
// attributes held fixed (Figure 4 row 4; Galhotra et al.'s causal
// discrimination score evaluated on the dataset of interest): the
// fraction of positions where factual and flipped differ.
func IndividualDiscrimination(factual, flipped []int) float64 {
	n := len(factual)
	if n == 0 {
		return 0
	}
	flipped = flipped[:n]
	changed := 0
	for i, a := range factual {
		if a != flipped[i] {
			changed++
		}
	}
	return float64(changed) / float64(n)
}

// causalBins is the equal-frequency bin count the causal metrics
// discretize numeric attributes into.
const causalBins = 4

// CausalStrata stratifies d for the causal metrics TE, NDE and NIE under
// graph g, or returns nil when g is nil: the prediction-independent half
// of their estimate, which ComputeFairnessStrata completes for one
// prediction vector.
func CausalStrata(d *dataset.Dataset, g *causal.Graph) *causal.Strata {
	if g == nil {
		return nil
	}
	return causal.NewEstimator(d, g, causalBins).Strata(d)
}

// ComputeFairness evaluates every fairness metric at once. yhat must be
// p's labels on d. p may be nil, in which case ID is reported as 0 (e.g.
// for precomputed prediction vectors with no model handle). g may be nil,
// in which case the causal metrics are 0. It stratifies d on every call;
// a caller scoring many prediction vectors on one split builds
// CausalStrata once and calls ComputeFairnessStrata.
func ComputeFairness(d *dataset.Dataset, yhat []int, p Flipper, g *causal.Graph) Fairness {
	return ComputeFairnessStrata(d, yhat, p, CausalStrata(d, g))
}

// ComputeFairnessStrata is ComputeFairness with d's causal strata given
// (CausalStrata(d, g); nil reports the causal metrics as 0). The
// group-rate tallies behind DI, TPRB, and TNRB are computed in one pass
// over the predictions instead of one per metric; the derived values are
// bit-identical to the per-metric functions.
func ComputeFairnessStrata(d *dataset.Dataset, yhat []int, p Flipper, st *causal.Strata) Fairness {
	gr := ComputeGroupRates(d, yhat)
	f := Fairness{
		DI:   gr.DI(),
		TPRB: gr.TPR[1] - gr.TPR[0],
		TNRB: gr.TNR[1] - gr.TNR[0],
	}
	if p != nil {
		f.ID = IndividualDiscrimination(p.PredictFlipped(d, yhat))
	}
	if st != nil {
		eff := st.Effects(yhat)
		f.TE, f.NDE, f.NIE = eff.TE, eff.NDE, eff.NIE
	}
	return f
}

// Normalized holds the paper's presentation scale (Section 4.1): all
// scores in [0,1] with 1 = completely fair. Reverse records, per metric,
// whether residual discrimination favors the unprivileged group (the red
// bars in Figures 7 and 9).
type Normalized struct {
	DIStar, TPRB, TNRB, ID, TE, NDE, NIE float64
	Reverse                              struct {
		DI, TPRB, TNRB, TE bool
	}
}

// Normalize converts raw fairness values to the paper's scale.
func Normalize(f Fairness) Normalized {
	var n Normalized
	n.DIStar = DIStar(f.DI)
	n.Reverse.DI = f.DI > 1
	n.TPRB = 1 - math.Abs(f.TPRB)
	n.Reverse.TPRB = f.TPRB < 0
	n.TNRB = 1 - math.Abs(f.TNRB)
	n.Reverse.TNRB = f.TNRB < 0
	n.ID = 1 - f.ID
	n.TE = 1 - math.Abs(f.TE)
	n.Reverse.TE = f.TE < 0
	n.NDE = 1 - math.Abs(f.NDE)
	n.NIE = 1 - math.Abs(f.NIE)
	return n
}

// DIStar returns min(DI, 1/DI), mapping both directions of disparate
// impact onto [0,1] with 1 = parity.
func DIStar(di float64) float64 {
	if math.IsInf(di, 1) || di <= 0 {
		return 0
	}
	if di > 1 {
		return 1 / di
	}
	return di
}
