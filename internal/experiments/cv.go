package experiments

import (
	"fairbench/internal/registry"
	"fairbench/internal/rng"
	"fairbench/internal/stats"
	"fairbench/internal/synth"
)

// cvGrid builds the k-fold cross-validation tables' grid (Figures
// 16-18): every approach's metrics averaged over k folds. The (fold ×
// approach) grid runs as one flat job list; per-fold baseline subtraction
// and the fold average are post-passes in the serial loop's order, so the
// aggregate floats match a serial run bit for bit.
func cvGrid(src *synth.Source, k int, seed int64) *Grid {
	folds := src.Data.KFold(k, rng.New(seed))
	names := append([]string{"LR"}, registry.Names...)
	slices := make([]splitPair, len(folds))
	for fi, fold := range folds {
		slices[fi] = splitPair{train: fold.Train, test: fold.Test}
	}
	return metricGrid(slices, names, src.Graph, seed,
		func(fi int) int64 { return seed + int64(fi) },
		func(g *Grid, cells []Cell) (*Output, error) {
			rows, err := cellRows(cells)
			if err != nil {
				return nil, err
			}
			acc := make([]Row, len(names))
			for fi := range slices {
				fold := rows[fi*len(names) : (fi+1)*len(names)]
				baseline := fold[0].Seconds
				for ni := range fold {
					// The CV tables keep the raw (possibly negative)
					// difference: they report fold averages, not the
					// clamped Figure 7 column.
					fold[ni].Overhead = fold[ni].Seconds - baseline
					addRow(&acc[ni], fold[ni])
				}
			}
			inv := 1 / float64(k)
			for i := range acc {
				scaleRow(&acc[i], inv)
			}
			return &Output{Rows: acc}, nil
		})
}

func addRow(dst *Row, src Row) {
	if dst.Approach == "" {
		dst.Approach, dst.Stage, dst.Targets = src.Approach, src.Stage, src.Targets
	}
	dst.Correct.Accuracy += src.Correct.Accuracy
	dst.Correct.Precision += src.Correct.Precision
	dst.Correct.Recall += src.Correct.Recall
	dst.Correct.F1 += src.Correct.F1
	dst.Fair.DIStar += src.Fair.DIStar
	dst.Fair.TPRB += src.Fair.TPRB
	dst.Fair.TNRB += src.Fair.TNRB
	dst.Fair.ID += src.Fair.ID
	dst.Fair.TE += src.Fair.TE
	dst.Fair.NDE += src.Fair.NDE
	dst.Fair.NIE += src.Fair.NIE
	dst.Seconds += src.Seconds
	dst.Overhead += src.Overhead
}

func scaleRow(r *Row, f float64) {
	r.Correct.Accuracy *= f
	r.Correct.Precision *= f
	r.Correct.Recall *= f
	r.Correct.F1 *= f
	r.Fair.DIStar *= f
	r.Fair.TPRB *= f
	r.Fair.TNRB *= f
	r.Fair.ID *= f
	r.Fair.TE *= f
	r.Fair.NDE *= f
	r.Fair.NIE *= f
	r.Seconds *= f
	r.Overhead *= f
}

// StabilityRow summarizes an approach's variability over repeated random
// folds (Figure 22): mean and standard deviation per headline metric.
type StabilityRow struct {
	Approach          string
	Stage             string
	AccMean, AccStd   float64
	DIMean, DIStd     float64
	TPRBMean, TPRBStd float64
	F1Mean, F1Std     float64
}

// stabilityGrid builds the Figure 22 grid: random 2/3-1/3 folds, with
// per-metric variance reported over them. Folds are drawn up front (each
// from its own rng.New(seed+run), exactly as the serial protocol), then
// the (run × approach) grid fans out across the pool.
func stabilityGrid(src *synth.Source, runs int, seed int64) *Grid {
	names := append([]string{"LR"}, registry.Names...)
	slices := make([]splitPair, runs)
	for ri := range slices {
		slices[ri].train, slices[ri].test = src.Data.Split(2.0/3, rng.New(seed+int64(ri)))
	}
	return metricGrid(slices, names, src.Graph, seed,
		func(ri int) int64 { return seed + int64(ri) },
		func(g *Grid, cells []Cell) (*Output, error) {
			rows, err := cellRows(cells)
			if err != nil {
				return nil, err
			}
			out := make([]StabilityRow, len(names))
			for ni, name := range names {
				acc := make([]float64, 0, runs)
				di := make([]float64, 0, runs)
				tprb := make([]float64, 0, runs)
				f1 := make([]float64, 0, runs)
				for ri := 0; ri < runs; ri++ {
					r := rows[ri*len(names)+ni]
					acc = append(acc, r.Correct.Accuracy)
					di = append(di, r.Fair.DIStar)
					tprb = append(tprb, r.Fair.TPRB)
					f1 = append(f1, r.Correct.F1)
				}
				out[ni] = StabilityRow{
					Approach: name,
					Stage:    rows[ni].Stage,
					AccMean:  stats.Mean(acc), AccStd: stats.Std(acc),
					DIMean: stats.Mean(di), DIStd: stats.Std(di),
					TPRBMean: stats.Mean(tprb), TPRBStd: stats.Std(tprb),
					F1Mean: stats.Mean(f1), F1Std: stats.Std(f1),
				}
			}
			return &Output{Stability: out}, nil
		})
}

// EfficiencyPoint is one (training size, metrics) measurement.
type EfficiencyPoint struct {
	Size int
	Row  Row
}

// efficiencyGrid builds the Figure 23 grid: every approach is retrained
// on growing training samples and evaluated on a fixed held-out test set.
// Samples are drawn up front (rng.New(seed+size), as in the serial
// protocol); the (size × approach) grid fans out across the pool.
func efficiencyGrid(src *synth.Source, sizes []int, names []string, seed int64) *Grid {
	if names == nil {
		names = append([]string{"LR"}, registry.Names...)
	}
	trainPool, test := src.Data.Split(0.7, rng.New(seed))
	slices := make([]splitPair, len(sizes))
	for si, n := range sizes {
		slices[si] = splitPair{train: trainPool.Sample(n, rng.New(seed+int64(n))), test: test}
	}
	return metricGrid(slices, names, src.Graph, seed, func(int) int64 { return seed },
		func(g *Grid, cells []Cell) (*Output, error) {
			rows, err := cellRows(cells)
			if err != nil {
				return nil, err
			}
			out := map[string][]EfficiencyPoint{}
			for si, n := range sizes {
				for ni, name := range names {
					out[name] = append(out[name], EfficiencyPoint{Size: n, Row: rows[si*len(names)+ni]})
				}
			}
			return &Output{Efficiency: out}, nil
		})
}
