package experiments

import (
	"fairbench/internal/corrupt"
	"fairbench/internal/registry"
	"fairbench/internal/rng"
	"fairbench/internal/synth"
)

// RobustnessResult pairs an error template with the full evaluation rows
// produced when every approach trains on the corrupted data but is tested
// on clean data — the Section 4.4 protocol (data-quality issues distort
// the training distribution; the target population stays clean).
type RobustnessResult struct {
	Template corrupt.Template
	Rows     []Row
}

// robustnessGrid builds the Figure 9 grid: COMPAS corrupted by templates
// T1-T3 with the paper's 50%/10% disproportionate rates. Corruption is
// cheap and happens when the grid is materialized; the expensive
// (template × approach) grid then fans out as one flat job list so all
// three templates train concurrently.
func robustnessGrid(src *synth.Source, seed int64) (*Grid, error) {
	train, test := src.Data.Split(0.7, rng.New(seed))
	templates := []corrupt.Template{corrupt.T1, corrupt.T2, corrupt.T3}
	slices := make([]splitPair, len(templates))
	for i, tmpl := range templates {
		d, err := corrupt.ApplyCOMPAS(train, tmpl, seed+int64(tmpl))
		if err != nil {
			return nil, err
		}
		slices[i] = splitPair{train: d, test: test}
	}
	names := append([]string{"LR"}, registry.Names...)
	return metricGrid(slices, names, src.Graph, seed, func(int) int64 { return seed },
		func(g *Grid, cells []Cell) (*Output, error) {
			rows, err := cellRows(cells)
			if err != nil {
				return nil, err
			}
			out := make([]RobustnessResult, len(templates))
			for ti, tmpl := range templates {
				tr := rows[ti*len(names) : (ti+1)*len(names)]
				applyOverhead(tr, tr[0].Seconds)
				out[ti] = RobustnessResult{Template: tmpl, Rows: tr}
			}
			return &Output{Robustness: out}, nil
		}), nil
}

// RobustnessDelta compares corrupted-training rows against clean-training
// rows approach by approach, returning accuracy and target-fairness drops.
type RobustnessDelta struct {
	Approach     string
	Template     corrupt.Template
	AccuracyDrop float64
	// TargetFairDrop is the drop on the first metric the approach
	// optimizes (0 for the baseline).
	TargetFairDrop float64
}

// Deltas computes per-approach degradation between a clean run and a
// robustness run.
func Deltas(clean []Row, dirty RobustnessResult) []RobustnessDelta {
	byName := map[string]Row{}
	for _, r := range clean {
		byName[r.Approach] = r
	}
	var out []RobustnessDelta
	for _, r := range dirty.Rows {
		c, ok := byName[r.Approach]
		if !ok {
			continue
		}
		d := RobustnessDelta{
			Approach:     r.Approach,
			Template:     dirty.Template,
			AccuracyDrop: c.Correct.Accuracy - r.Correct.Accuracy,
		}
		if len(r.Targets) > 0 {
			d.TargetFairDrop = targetScore(c) - targetScore(r)
		}
		out = append(out, d)
	}
	return out
}

// targetScore reads the normalized value of the approach's first targeted
// metric.
func targetScore(r Row) float64 {
	if len(r.Targets) == 0 {
		return 0
	}
	switch r.Targets[0] {
	case "DI*":
		return r.Fair.DIStar
	case "1-|TPRB|":
		return r.Fair.TPRB
	case "1-|TNRB|":
		return r.Fair.TNRB
	case "1-ID":
		return r.Fair.ID
	case "1-|TE|":
		return r.Fair.TE
	default:
		return 0
	}
}
