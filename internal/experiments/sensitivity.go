package experiments

import (
	"fmt"

	"fairbench/internal/classifier"
	"fairbench/internal/rng"
	"fairbench/internal/synth"
)

// ModelNames lists the five model families of the model-sensitivity
// experiment (Section 4.5, Appendix F).
var ModelNames = []string{"LR", "SVM", "kNN", "RF", "MLP"}

// ModelFactory returns a constructor for one model-family name (see
// classifier.New).
func ModelFactory(name string) func() classifier.Classifier {
	return func() classifier.Classifier { return classifier.New(name) }
}

// SensitivityRow is one (approach, model) evaluation.
type SensitivityRow struct {
	Approach, Model string
	Row             Row
}

// sensitivityGrid builds the Figure 10 / Figure 21 grid: each pre- and
// post-processing approach is paired with each of the five model
// families; in-processing approaches are excluded because their mechanism
// is welded to their own learner (Section 4.5 evaluates pre and post
// only). Each (model family × approach) cell builds its own approach and
// classifier from the model's name, so no state crosses goroutines or
// processes except the read-only repairs and base fits its armed training
// split shares (see Grid.RunRangeContext).
func sensitivityGrid(src *synth.Source, approaches []string, seed int64) *Grid {
	if approaches == nil {
		approaches = DefaultSensitivityApproaches
	}
	train, test := src.Data.Split(0.7, rng.New(seed))
	slices := []splitPair{{train, test}}
	return &Grid{
		kind: kindSens, graph: src.Graph, seed: seed,
		slices: slices, strata: sliceStrata(slices, src.Graph),
		models: ModelNames, names: approaches,
		assemble: func(g *Grid, cells []Cell) (*Output, error) {
			rows := make([]SensitivityRow, len(cells))
			for i := range cells {
				if cells[i].Sens == nil {
					return nil, fmt.Errorf("experiments: cell %d has no sensitivity payload", i)
				}
				rows[i] = *cells[i].Sens
			}
			return &Output{Sensitivity: rows}, nil
		},
	}
}

// SensitivitySpread summarizes, per approach, the spread (max - min) of
// accuracy and DI* across models — the quantity the paper's finding keys
// on: large for pre-processing, small for post-processing.
type SensitivitySpread struct {
	Approach              string
	Stage                 string
	AccSpread, DISpread   float64
	AccByModel, DIByModel map[string]float64
}

// Spreads aggregates the Figure 10 grid's rows.
func Spreads(rows []SensitivityRow) []SensitivitySpread {
	order := []string{}
	agg := map[string]*SensitivitySpread{}
	for _, r := range rows {
		s := agg[r.Approach]
		if s == nil {
			s = &SensitivitySpread{
				Approach:   r.Approach,
				Stage:      r.Row.Stage,
				AccByModel: map[string]float64{},
				DIByModel:  map[string]float64{},
			}
			agg[r.Approach] = s
			order = append(order, r.Approach)
		}
		s.AccByModel[r.Model] = r.Row.Correct.Accuracy
		s.DIByModel[r.Model] = r.Row.Fair.DIStar
	}
	var out []SensitivitySpread
	for _, name := range order {
		s := agg[name]
		s.AccSpread = spread(s.AccByModel)
		s.DISpread = spread(s.DIByModel)
		out = append(out, *s)
	}
	return out
}

func spread(m map[string]float64) float64 {
	first := true
	var lo, hi float64
	for _, v := range m {
		if first {
			lo, hi = v, v
			first = false
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return hi - lo
}
