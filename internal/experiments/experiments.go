// Package experiments implements one driver per artifact of the paper's
// evaluation (Section 4 and the appendix):
//
//	Figure 7    — correctness & fairness of all approaches × 3 datasets
//	Figure 8    — efficiency & scalability vs data size and #attributes
//	Figure 9    — robustness to the T1/T2/T3 data-error templates
//	Figure 10   — sensitivity of pre/post approaches to the ML model
//	Figures 16-18 — 5-fold cross-validation metric tables
//	Figure 22   — stability over random train/test folds
//	Figure 23   — data efficiency vs training-set size
//
// Every driver is deterministic given its seed and returns structured rows
// the report package renders. Every driver's (approach × dataset-slice)
// job list is a first-class Grid (see grid.go): an enumerable, indexable
// cell set that fans across a runner worker pool in process, and — because
// a Spec fully determines every cell — can also be split into contiguous
// shards that run in other processes or hosts and merge back bit-identical
// (see internal/shard). Each cell constructs its own approach and RNG from
// explicit seeds, so the rows are identical to a serial run for a fixed
// seed; only wall time changes with the pool size (Grid.SetWorkers).
// Baseline-overhead accounting (Section 4.3) is a post-pass over the collected
// rows, keeping the timing subtraction well-defined regardless of
// completion order.
package experiments

import (
	"fmt"
	"time"

	"fairbench/internal/causal"
	"fairbench/internal/dataset"
	"fairbench/internal/fair"
	"fairbench/internal/metrics"
	"fairbench/internal/registry"
	"fairbench/internal/rng"
	"fairbench/internal/synth"
)

// Row is the per-approach result of one evaluation run: the four
// correctness metrics, the normalized fairness metrics, and the runtime
// overhead over the fairness-unaware baseline (Section 4.3's accounting).
type Row struct {
	Approach string
	Stage    string
	Targets  []fair.Metric
	Correct  metrics.Correctness
	Fair     metrics.Normalized
	// Seconds is the approach's wall time (fit + predict); Overhead is
	// Seconds minus the baseline LR's on the same split.
	Seconds, Overhead float64
	// NoteNSF flags a Thomas run that fell back after failing its safety
	// test.
	NoteNSF bool
}

// Evaluate fits a on train, predicts test, and computes every metric.
func Evaluate(a fair.Approach, train, test *dataset.Dataset, g *causal.Graph) (Row, error) {
	start := time.Now()
	if err := a.Fit(train); err != nil {
		return Row{}, fmt.Errorf("%s: %w", a.Name(), err)
	}
	yhat, err := a.Predict(test)
	if err != nil {
		return Row{}, fmt.Errorf("%s: %w", a.Name(), err)
	}
	elapsed := time.Since(start).Seconds()
	raw := metrics.ComputeFairness(test, yhat, a, g)
	return Row{
		Approach: a.Name(),
		Stage:    a.Stage().String(),
		Targets:  a.Targets(),
		Correct:  metrics.ComputeCorrectness(test.Y, yhat),
		Fair:     metrics.Normalize(raw),
		Seconds:  elapsed,
	}, nil
}

// CorrectnessFairness reproduces Figure 7 for one dataset: the baseline LR
// followed by all 18 variants on a 70/30 split.
func CorrectnessFairness(src *synth.Source, seed int64) ([]Row, error) {
	out, err := fig7Grid(src, seed).RunAll()
	if err != nil {
		return nil, err
	}
	return out.Rows, nil
}

// fig7Grid builds the Figure 7 grid: one 70/30 split × (baseline + all 18
// variants).
func fig7Grid(src *synth.Source, seed int64) *Grid {
	return baselineRowsGrid(src, append([]string{"LR"}, registry.Names...), seed)
}

// splitPair is one dataset slice of an experiment grid: the train/test
// pair every approach of that slice is evaluated on.
type splitPair struct {
	train, test *dataset.Dataset
}

// metricGrid builds a (slice × approach) grid whose cells are evaluation
// Rows in slice-major order (cell si*len(names)+ni is approach ni on
// slice si). Each cell constructs its own approach from sliceSeed(si), so
// results are independent of scheduling and of the process that runs
// them. This is the shared engine behind Figure 7, the robustness
// templates, the CV folds, the stability runs, and the data-efficiency
// sizes.
func metricGrid(slices []splitPair, names []string, g *causal.Graph, seed int64,
	sliceSeed func(si int) int64, assemble func(*Grid, []Cell) (*Output, error)) *Grid {
	return &Grid{
		kind: kindMetric, graph: g, seed: seed,
		slices: slices, names: names, sliceSeed: sliceSeed,
		assemble: assemble,
	}
}

// baselineRowsGrid is a one-split metric grid whose post-pass anchors the
// Overhead column on the leading baseline row (names[0] must be the
// fairness-unaware LR).
func baselineRowsGrid(src *synth.Source, names []string, seed int64) *Grid {
	train, test := src.Data.Split(0.7, rng.New(seed))
	return metricGrid([]splitPair{{train, test}}, names, src.Graph, seed,
		func(int) int64 { return seed },
		func(_ *Grid, cells []Cell) (*Output, error) {
			rows, err := cellRows(cells)
			if err != nil {
				return nil, err
			}
			applyOverhead(rows, rows[0].Seconds)
			return &Output{Rows: rows}, nil
		})
}

// applyOverhead fills each row's Overhead as its Seconds over the baseline,
// clamped at zero (a fairness approach cannot be cheaper than no approach;
// negatives are timing noise).
func applyOverhead(rows []Row, baseline float64) {
	for i := range rows {
		ov := rows[i].Seconds - baseline
		if ov < 0 {
			ov = 0
		}
		rows[i].Overhead = ov
	}
}

// ScalabilityPoint is one (size or attribute count, overhead seconds)
// measurement for one approach.
type ScalabilityPoint struct {
	X        int
	Overhead float64
}

// scaleSlice is one column of the Figure 8 grids: a prepared train/test
// pair at one x value (#points or #attributes).
type scaleSlice struct {
	x           int
	train, test *dataset.Dataset
}

// ScalabilityRows reproduces Figure 8(a-c): runtime overhead as the number
// of training points grows, on samples of the given dataset.
func ScalabilityRows(src *synth.Source, sizes []int, names []string, seed int64) (map[string][]ScalabilityPoint, error) {
	out, err := scaleRowsGrid(src, sizes, names, seed).RunAll()
	if err != nil {
		return nil, err
	}
	return out.Scalability, nil
}

func scaleRowsGrid(src *synth.Source, sizes []int, names []string, seed int64) *Grid {
	slices := make([]scaleSlice, len(sizes))
	for i, n := range sizes {
		sample := src.Data.Sample(n, rng.New(seed+int64(n)))
		train, test := sample.Split(0.7, rng.New(seed))
		slices[i] = scaleSlice{x: n, train: train, test: test}
	}
	return scaleGrid(slices, names, src.Graph, seed)
}

// ScalabilityAttrs reproduces Figure 8(d-f): runtime overhead as the
// number of attributes grows, by projecting the dataset onto attribute
// prefixes.
func ScalabilityAttrs(src *synth.Source, attrCounts []int, names []string, sampleSize int, seed int64) (map[string][]ScalabilityPoint, error) {
	out, err := scaleAttrsGrid(src, attrCounts, names, sampleSize, seed).RunAll()
	if err != nil {
		return nil, err
	}
	return out.Scalability, nil
}

func scaleAttrsGrid(src *synth.Source, attrCounts []int, names []string, sampleSize int, seed int64) *Grid {
	sample := src.Data.Sample(sampleSize, rng.New(seed))
	slices := make([]scaleSlice, len(attrCounts))
	for i, k := range attrCounts {
		if k > sample.Dim() {
			k = sample.Dim()
		}
		cols := make([]int, k)
		for c := range cols {
			cols[c] = c
		}
		proj := sample.ProjectAttrs(cols)
		train, test := proj.Split(0.7, rng.New(seed))
		slices[i] = scaleSlice{x: k, train: train, test: test}
	}
	return scaleGrid(slices, names, src.Graph, seed)
}

// scaleGrid builds a pure-timing grid that times every (slice × approach)
// cell, with the baseline LR as an extra column per slice, and subtracts
// the baseline in the assembly post-pass. Unlike the metric grids, this
// grid's entire output is wall time, so RunRange executes its cells with
// one worker: co-scheduled cells would contend for cores and corrupt the
// very quantity being measured (Figure 8's overhead curves). Distributing
// its shards across isolated machines is the sanctioned way to speed it
// up.
func scaleGrid(slices []scaleSlice, names []string, g *causal.Graph, seed int64) *Grid {
	return &Grid{
		kind: kindScale, graph: g, seed: seed,
		scale: slices, names: names,
		assemble: func(gr *Grid, cells []Cell) (*Output, error) {
			secs, err := cellSeconds(cells)
			if err != nil {
				return nil, err
			}
			cols := len(gr.names) + 1
			out := map[string][]ScalabilityPoint{}
			for si, sl := range gr.scale {
				base := secs[si*cols]
				for ni, name := range gr.names {
					ov := secs[si*cols+ni+1] - base
					if ov < 0 {
						ov = 0
					}
					out[name] = append(out[name], ScalabilityPoint{X: sl.x, Overhead: ov})
				}
			}
			return &Output{Scalability: out}, nil
		},
	}
}

func timeOne(name string, train, test *dataset.Dataset, g *causal.Graph, seed int64) (float64, error) {
	a, err := registry.New(name, registry.Config{Graph: g, Seed: seed})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := a.Fit(train); err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	if _, err := a.Predict(test); err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return time.Since(start).Seconds(), nil
}
