package preproc

import (
	"sort"

	"fairbench/internal/dataset"
	"fairbench/internal/fair"
	"fairbench/internal/stats"
)

// Feld implements Feldman et al.'s disparate-impact remover: each numeric
// attribute is repaired so its marginal distribution is indistinguishable
// across sensitive groups. A value at quantile q within its group is
// replaced by the "median distribution" value at q — for two groups, the
// average of the two group quantile functions — scaled by the repair level
// λ (the paper evaluates full repair, λ = 1). Both training and test
// data are transformed; the sensitive attribute is dropped from the
// downstream model's features, which is why Feld trivially satisfies the
// ID metric (Section 4.2).
type Feld struct {
	// per-attribute sorted group columns fitted on training data; nil for
	// categorical attributes (left unrepaired, as in the reference
	// implementation which targets ordinal features).
	groupCols [][2][]float64
	// rowScratch backs TransformRow's result between calls (each grid
	// cell transforms through its own fork; its predictions are
	// sequential).
	rowScratch []float64
}

// feldLambda is Feld's repair level in [0,1]; 1 = full repair.
const feldLambda float64 = 1

// fit records the sorted per-group training columns used by both Repair
// and TransformRow.
func (f *Feld) fit(train *dataset.Dataset) {
	dim := train.Dim()
	f.groupCols = make([][2][]float64, dim)
	for j := 0; j < dim; j++ {
		if train.Attrs[j].Kind != dataset.Numeric {
			continue
		}
		var c0, c1 []float64
		for i, row := range train.X {
			if train.S[i] == 1 {
				c1 = append(c1, row[j])
			} else {
				c0 = append(c0, row[j])
			}
		}
		sort.Float64s(c0)
		sort.Float64s(c1)
		f.groupCols[j] = [2][]float64{c0, c1}
	}
}

// repairValue maps one raw value of attribute j observed in group s to its
// repaired value.
func (f *Feld) repairValue(j int, v float64, s int) float64 {
	cols := f.groupCols[j]
	if cols[0] == nil && cols[1] == nil {
		return v
	}
	own := cols[s]
	if len(own) == 0 {
		return v
	}
	q := stats.Rank(own, v)
	median := (stats.QuantileSorted(cols[0], q) + stats.QuantileSorted(cols[1], q)) / 2
	// Kept as the blend at λ = 1: the 0·v term still turns an infinite or
	// NaN v into NaN, and a median of −0 into +0 when v ≥ 0.
	return (1-feldLambda)*v + feldLambda*median
}

// Repair implements fair.Repairer: it fits the quantile maps on train and
// returns the repaired training data.
func (f *Feld) Repair(train *dataset.Dataset) (*dataset.Dataset, error) {
	f.fit(train)
	out := train.Clone()
	for i, row := range out.X {
		for j := range row {
			if f.groupCols[j][0] != nil || f.groupCols[j][1] != nil {
				row[j] = f.repairValue(j, train.X[i][j], train.S[i])
			}
		}
	}
	return out, nil
}

// TransformRow implements fair.TestTransformer: test tuples are repaired
// with the train-fitted quantile maps. The returned slice is scratch
// reused by the next call, per the TestTransformer contract.
func (f *Feld) TransformRow(x []float64, s int) []float64 {
	if f.groupCols == nil {
		return x
	}
	out := append(f.rowScratch[:0], x...)
	f.rowScratch = out[:0]
	for j := range out {
		if j < len(f.groupCols) && (f.groupCols[j][0] != nil || f.groupCols[j][1] != nil) {
			out[j] = f.repairValue(j, x[j], s)
		}
	}
	return out
}

// Fork implements fair.TestTransformer: the fork shares the fitted
// quantile maps and owns its row scratch.
func (f *Feld) Fork() fair.TestTransformer {
	c := *f
	c.rowScratch = nil
	return &c
}

// NewFeld returns the evaluated Feld^dp approach at full repair (λ=1).
func NewFeld(model string) fair.Approach {
	return &fair.PreProcessed{
		ApproachName: "Feld-DP",
		Target:       []fair.Metric{fair.MetricDI},
		Mechanism:    &Feld{},
		Model:        model,
		IncludeS:     false, // Feld discards S when training (Section 4.2)
	}
}
