package fairbench

import (
	"context"
	"fmt"
	"testing"

	"fairbench/internal/classifier"
	"fairbench/internal/experiments"
	"fairbench/internal/fair"
	"fairbench/internal/postproc"
	"fairbench/internal/preproc"
	"fairbench/internal/registry"
	"fairbench/internal/rng"
	"fairbench/internal/store"
	"fairbench/internal/synth"
)

// Benchmark sizes are scaled-down dataset samples so the full suite runs
// in minutes; the CLI (`fairbench <figN>`) runs the paper-size versions.
const (
	benchAdultN  = 2500
	benchCompasN = 1500
	benchGermanN = 1000
)

// benchGrid times opening and running spec's grid uncached, on a worker
// pool of the given size (0 = one worker per CPU). The dataset is
// synthesized once before the timer starts; each iteration re-opens the
// grid from the process's memoized source, as every Run does.
func benchGrid(b *testing.B, spec GridSpec, workers int) {
	if _, err := experiments.Open(spec); err != nil { // synthesize outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := experiments.Open(spec) // uncached: every cell computes
		if err != nil {
			b.Fatal(err)
		}
		g.SetWorkers(workers)
		if _, err := g.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 7: correctness & fairness, one bench per dataset ----

func benchFig7(b *testing.B, dataset string, n int) {
	benchGrid(b, GridSpec{Experiment: "fig7", Dataset: dataset, N: n, Seed: 1}, 0)
}

func BenchmarkFig7_Adult(b *testing.B)  { benchFig7(b, "adult", benchAdultN) }
func BenchmarkFig7_COMPAS(b *testing.B) { benchFig7(b, "compas", benchCompasN) }
func BenchmarkFig7_German(b *testing.B) { benchFig7(b, "german", benchGermanN) }

// ---- Runner: serial vs parallel evalAll (the perf-trajectory pair) ----
//
// The same 19-approach Figure 7 grid, forced serial vs on the default
// worker pool. scripts/bench.sh records both ns/op (and their ratio) to
// BENCH_parallel.json.

func benchEvalAllWorkers(b *testing.B, workers int) {
	benchGrid(b, GridSpec{Experiment: "fig7", Dataset: "compas", N: benchCompasN, Seed: 1}, workers)
}

func BenchmarkEvalAllSerial(b *testing.B)   { benchEvalAllWorkers(b, 1) }
func BenchmarkEvalAllParallel(b *testing.B) { benchEvalAllWorkers(b, 0) }

// ---- Figure 8: efficiency & scalability sweeps ----

func BenchmarkFig8_Rows(b *testing.B) {
	benchGrid(b, GridSpec{Experiment: "fig8rows", Dataset: "adult", N: 4000, Seed: 1,
		Sizes: []int{500, 1000, 2000}}, 0)
}

func BenchmarkFig8_Attrs(b *testing.B) {
	benchGrid(b, GridSpec{Experiment: "fig8attrs", Dataset: "adult", N: 3000, Seed: 1,
		AttrCounts: []int{2, 5, 9}, SampleSize: 2000}, 0)
}

// Per-approach training scaling: the raw series behind Figure 8(a-c).
func BenchmarkFig8_PerApproach(b *testing.B) {
	src := synth.Adult(3000, 1)
	train, test := src.Data.Split(0.7, rng.New(1))
	for _, name := range registry.Names {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := registry.New(name, registry.Config{Graph: src.Graph, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if err := a.Fit(train); err != nil {
					b.Fatal(err)
				}
				if _, err := a.Predict(test); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Figure 9: robustness to data errors ----

func BenchmarkFig9_Robustness(b *testing.B) {
	benchGrid(b, GridSpec{Experiment: "fig9", Dataset: "compas", N: benchCompasN, Seed: 1}, 0)
}

// ---- Figure 10/21: model sensitivity ----

func BenchmarkFig10_ModelSensitivity(b *testing.B) {
	// Three representative approaches x five models keeps iterations short.
	benchGrid(b, GridSpec{Experiment: "fig10", Dataset: "adult", N: benchAdultN, Seed: 1,
		Names: []string{"Feld-DP", "KamCal-DP", "KamKar-DP"}}, 0)
}

// ---- Figures 16-18: cross-validation tables ----

func BenchmarkCVTables(b *testing.B) {
	benchGrid(b, GridSpec{Experiment: "cv", Dataset: "german", N: benchGermanN, Seed: 1, K: 5}, 0)
}

// ---- Figure 22: stability ----

func BenchmarkFig22_Stability(b *testing.B) {
	benchGrid(b, GridSpec{Experiment: "fig22", Dataset: "compas", N: benchCompasN, Seed: 1, Runs: 3}, 0)
}

// ---- Figure 23: data efficiency ----

func BenchmarkFig23_DataEfficiency(b *testing.B) {
	benchGrid(b, GridSpec{Experiment: "fig23", Dataset: "adult", N: benchAdultN, Seed: 1,
		Sizes: []int{100, 500, 1000}, Names: []string{"LR", "KamCal-DP", "Hardt-EO", "Pleiss-EOP"}}, 0)
}

// ---- Sharding: plan + merge overhead (the BENCH_shard.json pair) ----
//
// BenchmarkShardPlan is the fixed cost every shard-running process pays
// before its first cell: materializing the grid from the spec (dataset
// synthesis + splits) and computing the shard plan. BenchmarkShardMerge
// is the coordinator's cost to validate, decode, and reassemble a
// complete 3-shard set into driver-native rows. Together they bound the
// overhead of going distributed; scripts/bench.sh records both.

func BenchmarkShardPlan(b *testing.B) {
	spec := GridSpec{Experiment: "fig7", Dataset: "compas", N: benchCompasN, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PlanShards(spec, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardMerge(b *testing.B) {
	spec := GridSpec{Experiment: "fig7", Dataset: "german", N: 300, Seed: 1}
	envs := make([]*ShardEnvelope, 3)
	for i := range envs {
		env, err := RunShard(spec, i, 3)
		if err != nil {
			b.Fatal(err)
		}
		envs[i] = env
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MergeShards(envs); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Result cache: cold vs warm shard runs (the BENCH_cache.json pair) ----
//
// BenchmarkRunShardCold runs a one-shard Figure 7 grid against a fresh
// cache directory every iteration (every cell computed and written
// back); BenchmarkRunShardWarm runs the same grid against a populated
// cache (every cell a verified store hit, zero computations — asserted
// via the store counters). Their ratio is the speedup a resumed or
// re-run figure gets per already-computed cell; scripts/bench.sh records
// both to BENCH_cache.json.

var benchCacheSpec = GridSpec{Experiment: "fig7", Dataset: "german", N: 300, Seed: 1}

// benchCachedShard runs the whole grid as one shard against an explicit
// cache directory, on the internal API the engine path uses.
func benchCachedShard(spec GridSpec, dir string) (*ShardEnvelope, error) {
	s, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return experiments.RunShardContext(context.Background(), spec, 0, 1, s, 0)
}

func BenchmarkRunShardCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir() // a fresh, empty cache every iteration
		b.StartTimer()
		if _, err := benchCachedShard(benchCacheSpec, dir); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunShardWarm(b *testing.B) {
	dir := b.TempDir()
	env, err := benchCachedShard(benchCacheSpec, dir) // populate
	if err != nil {
		b.Fatal(err)
	}
	cells := len(env.Indices)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env, err := benchCachedShard(benchCacheSpec, dir)
		if err != nil {
			b.Fatal(err)
		}
		if len(env.Cached) != cells {
			b.Fatalf("warm iteration computed %d cells", cells-len(env.Cached))
		}
	}
}

// ---- Training kernels: the BENCH_train.json set ----
//
// BenchmarkFitLogreg is the hot loop behind every cell: one full-batch
// Adam fit of the baseline logistic regression on a standardized German
// 70% split. BenchmarkGridCellCold and BenchmarkGridBatchCold run the
// same whole uncached fig7 German n=300 grid (19 cold cells, no result
// cache) two ways: GridCellCold computes every cell in a serial Cell
// loop, while GridBatchCold runs RunAll, the product path, on the runner
// pool. Metric grids share nothing between cells, so the two differ only
// in worker count; their outputs are byte-identical
// (TestBatchedMatchesPerCell). BenchmarkSynthMaterialize is dataset
// materialization alone —
// the cost the per-run synthesis memo amortizes across Opens.
// scripts/bench.sh records all of these (ns/op and allocs/op) to
// BENCH_train.json next to the seed baselines measured before the
// flat-layout refactor.

func BenchmarkFitLogreg(b *testing.B) {
	src := synth.German(1000, 1)
	train, _ := src.Data.Split(0.7, rng.New(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := fair.NewBaseline()
		if err := base.Fit(train); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdamStepLogreg isolates one full-batch Adam objective+update
// step of the logistic regression (what the per-iteration allocation
// bound in internal/classifier pins); the surrounding Fit machinery is
// excluded by running MaxIter=1.
func BenchmarkAdamStepLogreg(b *testing.B) {
	src := synth.German(1000, 1)
	train, _ := src.Data.Split(0.7, rng.New(1))
	_, x := train.StandardizedDesign(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lr := classifier.NewLogistic()
		lr.MaxIter = 1
		if err := lr.Fit(x, train.Y, train.Weights); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridCellCold(b *testing.B) {
	spec := experiments.Spec{Experiment: "fig7", Dataset: "german", N: 300, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := experiments.Open(spec)
		if err != nil {
			b.Fatal(err)
		}
		g.SetCache(nil) // always the cold path: every cell computed
		for c := 0; c < g.Len(); c++ {
			if _, err := g.Cell(c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkGridBatchCold(b *testing.B) {
	spec := experiments.Spec{Experiment: "fig7", Dataset: "german", N: 300, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := experiments.Open(spec)
		if err != nil {
			b.Fatal(err)
		}
		g.SetCache(nil) // always the cold path: every cell computed
		if _, err := g.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthMaterialize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if src := synth.Adult(5000, 1); src.Data.Len() != 5000 {
			b.Fatal("bad materialization")
		}
	}
}

// ---- Ablation benches (design choices DESIGN.md calls out) ----

// Kam-Cal's two faces: weighted resampling (evaluated variant) vs pure
// instance weighting.
func BenchmarkAblation_ReweighVsResample(b *testing.B) {
	src := synth.COMPAS(benchCompasN, 1)
	train, test := src.Data.Split(0.7, rng.New(1))
	for _, mode := range []string{"resample", "weighted"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var a fair.Approach
				if mode == "resample" {
					a = preproc.NewKamCal("", 1)
				} else {
					a = preproc.NewKamCalWeighted("")
				}
				if err := a.Fit(train); err != nil {
					b.Fatal(err)
				}
				if _, err := a.Predict(test); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Salimi's two repair solvers at growing stratum complexity.
func BenchmarkAblation_SalimiSolvers(b *testing.B) {
	src := synth.Adult(2000, 1)
	for _, matFac := range []bool{false, true} {
		name := "MaxSAT"
		if matFac {
			name = "MatFac"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sal := &preproc.Salimi{
					Inadmissible: preproc.DefaultInadmissible,
					UseMatFac:    matFac,
					Seed:         1,
				}
				if _, err := sal.Repair(src.Data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Zafar's fairness/accuracy dial: the covariance bound sweep that traces
// the trade-off curve of Section 4.2.
func BenchmarkAblation_ZafarPenalty(b *testing.B) {
	src := synth.COMPAS(benchCompasN, 1)
	train, test := src.Data.Split(0.7, rng.New(1))
	for _, bound := range []float64{1e-4, 1e-2, 1e-1} {
		b.Run(fmt.Sprintf("cov=%g", bound), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a := &inprocZafar{bound: bound}
				if err := a.fit(train, test); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Hardt's exact LP vs a naive grid search over the four mixing rates.
func BenchmarkAblation_HardtLPvsGrid(b *testing.B) {
	src := synth.COMPAS(benchCompasN, 1)
	train, _ := src.Data.Split(0.7, rng.New(1))
	_, design := train.StandardizedDesign(true)
	base := classifier.NewLogistic()
	if err := base.Fit(design, train.Y, nil); err != nil {
		b.Fatal(err)
	}
	proba := classifier.ProbaAll(base, design)
	b.Run("LP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h := &postproc.Hardt{}
			if err := h.FitAdjust(train, proba); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gridEqualizeOdds(train.Y, train.S, proba, 20)
		}
	})
}

// gridEqualizeOdds is the brute-force comparator for the Hardt ablation:
// it scans a k^4 grid of mixing rates for the feasible minimum-error cell.
func gridEqualizeOdds(y, s []int, proba []float64, k int) [4]float64 {
	var tp, fp, pn, nn [2]float64
	for i, p := range proba {
		pred := 0
		if p >= 0.5 {
			pred = 1
		}
		if y[i] == 1 {
			pn[s[i]]++
			if pred == 1 {
				tp[s[i]]++
			}
		} else {
			nn[s[i]]++
			if pred == 1 {
				fp[s[i]]++
			}
		}
	}
	var tpr, fpr [2]float64
	for g := 0; g < 2; g++ {
		if pn[g] > 0 {
			tpr[g] = tp[g] / pn[g]
		}
		if nn[g] > 0 {
			fpr[g] = fp[g] / nn[g]
		}
	}
	best := [4]float64{1, 1, 0, 0}
	bestErr := 1e18
	step := 1.0 / float64(k)
	n := float64(len(y))
	for a0 := 0.0; a0 <= 1; a0 += step {
		for a1 := 0.0; a1 <= 1; a1 += step {
			for b0 := 0.0; b0 <= 1; b0 += step {
				for b1 := 0.0; b1 <= 1; b1 += step {
					t0 := a0*tpr[0] + b0*(1-tpr[0])
					t1 := a1*tpr[1] + b1*(1-tpr[1])
					f0 := a0*fpr[0] + b0*(1-fpr[0])
					f1 := a1*fpr[1] + b1*(1-fpr[1])
					if abs(t0-t1) > 0.02 || abs(f0-f1) > 0.02 {
						continue
					}
					errv := pn[0]/n*(1-t0) + nn[0]/n*f0 + pn[1]/n*(1-t1) + nn[1]/n*f1
					if errv < bestErr {
						bestErr = errv
						best = [4]float64{a0, a1, b0, b1}
					}
				}
			}
		}
	}
	return best
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// inprocZafar wraps the registry construction for the penalty ablation.
type inprocZafar struct{ bound float64 }

func (z *inprocZafar) fit(train, test *Dataset) error {
	a, err := registry.New("Zafar-DP-Fair", registry.Config{Seed: 1})
	if err != nil {
		return err
	}
	type boundSetter interface{ SetCovBound(float64) }
	if bs, ok := a.(boundSetter); ok {
		bs.SetCovBound(z.bound)
	}
	if err := a.Fit(train); err != nil {
		return err
	}
	_, err = a.Predict(test)
	return err
}
