// Package preproc implements the five pre-processing approaches of the
// benchmark (Figure 5, "pre" rows): Kam-Cal reweighted resampling, the
// Feld disparate-impact remover, Calmon optimized pre-processing, the two
// Zha-Wu causal label repairs, and the two Salimi justifiable-fairness
// database repairs. Each mechanism implements fair.Repairer and is exposed
// as a complete fair.Approach through fair.PreProcessed.
package preproc

import (
	"fairbench/internal/dataset"
	"fairbench/internal/fair"
	"fairbench/internal/rng"
)

// The mechanisms that transform test data. A TransformRow without Fork
// would not satisfy fair.TestTransformer, and PreProcessed would then
// skip the test transform without a word; these assertions make it a
// compile error instead.
var (
	_ fair.TestTransformer = (*Feld)(nil)
	_ fair.TestTransformer = (*Calmon)(nil)
	_ fair.TestTransformer = (*Madras)(nil)
)

// KamCal implements Kamiran & Calders' reweighing pre-processor targeting
// demographic parity: each tuple receives weight
//
//	w(t) = P_exp(S=S_t ∧ Y=Y_t) / P_obs(S=S_t ∧ Y=Y_t)
//
// and the training set is rebuilt by weighted resampling, making S and Y
// statistically independent in the repaired data.
type KamCal struct {
	// Seed drives the resampling.
	Seed int64
}

// Weights returns the reweighing weight for every tuple of d.
func (k *KamCal) Weights(d *dataset.Dataset) []float64 {
	n := float64(d.Len())
	var cnt [2][2]float64 // [s][y]
	var sTot, yTot [2]float64
	for i := range d.Y {
		cnt[d.S[i]][d.Y[i]]++
		sTot[d.S[i]]++
		yTot[d.Y[i]]++
	}
	w := make([]float64, d.Len())
	for i := range w {
		s, y := d.S[i], d.Y[i]
		obs := cnt[s][y] / n
		exp := (sTot[s] / n) * (yTot[y] / n)
		if obs <= 0 {
			w[i] = 1
			continue
		}
		w[i] = exp / obs
	}
	return w
}

// Repair implements fair.Repairer.
func (k *KamCal) Repair(train *dataset.Dataset) (*dataset.Dataset, error) {
	out := train.ResampleWeighted(k.Weights(train), train.Len(), rng.New(k.Seed))
	out.Weights = nil
	return out, nil
}

// NewKamCal returns the evaluated Kam-Cal^dp approach with the given
// downstream model family ("" = logistic regression).
func NewKamCal(model string, seed int64) fair.Approach {
	return &fair.PreProcessed{
		ApproachName: "KamCal-DP",
		Target:       []fair.Metric{fair.MetricDI},
		Mechanism:    &KamCal{Seed: seed},
		Model:        model,
		IncludeS:     true,
	}
}
