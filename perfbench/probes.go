package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fairbench/internal/classifier"
	"fairbench/internal/engine"
	"fairbench/internal/experiments"
	"fairbench/internal/metrics"
	"fairbench/internal/registry"
	"fairbench/internal/rng"
	"fairbench/internal/shard"
	"fairbench/internal/store"
)

// probeInputs tells the layer probes what a workload runs.
type probeInputs struct {
	// primary is the workload's own grid: batched against per-cell
	// execution, store and envelope costs are measured on it.
	primary experiments.Spec
	// opSpecs are the grids one op serves.
	opSpecs []experiments.Spec
	// outs are those grids' outputs when the workload already holds
	// them; otherwise their serial references are used.
	outs []*experiments.Output
	// cacheDir is a result store covering opSpecs, or "" when the probes
	// build one for primary.
	cacheDir string
	// counts are the result-store counters of the traced ops.
	counts storeCounts
	// serve holds the traced ops' serve figures, or nil when the probes
	// run a few served ops of their own.
	serve *serveStats
}

// familyOf maps the model names of the sensitivity grid to classifier
// family names.
var familyOf = map[string]string{"LR": "logreg", "SVM": "svm", "kNN": "knn", "RF": "rf", "MLP": "mlp"}

// probeReps is how many times a cheap probe repeats; it reports the median.
const probeReps = 5

// bareRuns caps the bare engine runs serve.overhead_s compares against.
const bareRuns = 15

// layerMetrics computes every per-layer metric of a traced run: self
// time per layer and tracing overhead from the loop's spans, and the
// rest from probes that call each layer's public functions directly on
// the workload's inputs.
func layerMetrics(b *bench, w workload, ops []opRecord, m map[string]metric) error {
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	set("env.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
	set("env.nproc", float64(b.nproc), "count")

	var traced, untraced []float64
	for _, op := range ops {
		if op.traced {
			traced = append(traced, op.seconds)
		} else {
			untraced = append(untraced, op.seconds)
		}
	}
	set("trace.overhead_frac", median(traced)/median(untraced)-1, "frac")
	set("trace.spans_per_op", float64(b.tr.count())/float64(len(traced)), "count")
	self := b.tr.selfTimes()
	for _, l := range layers {
		set("self_s."+l, self[l]/float64(len(traced)), "s")
	}

	in := w.probe(b)
	b.tr.enable(true, -1)
	defer b.tr.enable(false, -1)

	c := in.counts
	perOp := func(n int64) float64 { return float64(n) / float64(max(c.ops, 1)) }
	set("store.hits", perOp(c.Hits), "count")
	set("store.misses", perOp(c.Misses), "count")
	set("store.writes", perOp(c.Writes), "count")
	set("store.rejected", perOp(c.Rejected), "count")
	ratio := 0.0
	if c.Hits+c.Misses > 0 {
		ratio = float64(c.Hits) / float64(c.Hits+c.Misses)
	}
	set("store.hit_ratio", ratio, "frac")

	v, err := timeMedian(func() error {
		seen := map[string]bool{}
		for _, s := range in.opSpecs {
			ds := experiments.Spec{Dataset: s.Dataset, N: s.N, Seed: s.Seed}
			if seen[specKey(ds)] {
				continue
			}
			seen[specKey(ds)] = true
			if err := materialize(b, ds); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("synth.materialize_s", v, "s")

	v, err = timeMedian(func() error {
		for _, s := range in.opSpecs {
			sp := b.tr.begin(0, "experiments", "Open")
			_, err := experiments.Open(s)
			b.tr.end(sp)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("experiments.open_s", v/float64(len(in.opSpecs)), "s")

	// Batched (RunAll) against per-cell (a Cell loop), both on one worker.
	ref, err := b.serialReference(in.primary)
	if err != nil {
		return err
	}
	cells, perCell, err := cellLoop(b, in.primary)
	if err != nil {
		return err
	}
	set("experiments.batched_s", ref.seconds, "s")
	set("experiments.per_cell_s", perCell, "s")
	set("experiments.batch_gain", perCell/ref.seconds, "ratio")

	fig7Spec := experiments.Spec{Experiment: "fig7", Dataset: "german", N: smallN, Seed: b.seed}
	fig10Spec := experiments.Spec{Experiment: "fig10", Dataset: "adult", N: smallN, Seed: b.seed}
	fig7Cells, fig10Cells := cells, cells
	switch in.primary.Experiment {
	case "fig7":
		fig7Spec = in.primary
		if fig10Cells, _, err = cellLoop(b, fig10Spec); err != nil {
			return err
		}
	case "fig10":
		fig10Spec = in.primary
		if fig7Cells, _, err = cellLoop(b, fig7Spec); err != nil {
			return err
		}
	default:
		return fmt.Errorf("no probe grids for primary experiment %q", in.primary.Experiment)
	}
	for _, c := range fig7Cells {
		set("experiments.cell_s."+c.Row.Approach, c.Row.Seconds, "s")
	}
	bySens := map[string][]float64{}
	for _, c := range fig10Cells {
		bySens[c.Sens.Model] = append(bySens[c.Sens.Model], c.Sens.Row.Seconds)
	}
	for model, secs := range bySens {
		set("experiments.sens_cell_s."+model, mean(secs), "s")
	}

	if err := probeClassifiers(b, fig10Spec, set); err != nil {
		return err
	}
	if err := probeMetrics(b, fig7Spec, set); err != nil {
		return err
	}

	cacheDir, err := probeStore(b, in.primary, cells, set)
	if err != nil {
		return err
	}
	if err := probeShard(b, in.primary, cacheDir, set); err != nil {
		return err
	}

	outs := in.outs
	if outs == nil {
		for _, s := range in.opSpecs {
			r, err := b.serialReference(s)
			if err != nil {
				return err
			}
			outs = append(outs, r.out)
		}
	}
	v, err = timeMedian(func() error {
		for _, out := range outs {
			sp := b.tr.begin(0, "report", "RenderOutput")
			_, err := render(out)
			b.tr.end(sp)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	set("report.render_s", v, "s")

	warmSpecs := in.opSpecs
	if in.cacheDir != "" {
		cacheDir = in.cacheDir
	} else {
		warmSpecs = []experiments.Spec{in.primary}
	}
	if err := probeWarm(b, warmSpecs, cacheDir, set); err != nil {
		return err
	}

	st := in.serve
	if st == nil {
		if st, err = probeServe(b); err != nil {
			return err
		}
	}
	return serveMetrics(b, st, set)
}

// timeMedian runs f probeReps times and returns its median wall time.
func timeMedian(f func() error) (float64, error) {
	var secs []float64
	for r := 0; r < probeReps; r++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// cellLoop computes every cell of the spec's grid one at a time through
// Grid.Cell — the per-cell path, with no batch preparation — and returns
// the cells and the loop's wall time.
func cellLoop(b *bench, spec experiments.Spec) ([]experiments.Cell, float64, error) {
	g, err := experiments.Open(spec)
	if err != nil {
		return nil, 0, err
	}
	g.SetCache(nil)
	cells := make([]experiments.Cell, g.Len())
	start := time.Now()
	for i := range cells {
		sp := b.tr.begin(0, "experiments", "Cell")
		cells[i], err = g.Cell(i)
		b.tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
	}
	return cells, time.Since(start).Seconds(), nil
}

// probeClassifiers fits and applies each classifier family once on the
// spec's 70/30 split.
func probeClassifiers(b *bench, spec experiments.Spec, set func(string, float64, string)) error {
	src, err := source(spec)
	if err != nil {
		return err
	}
	train, test := src.Data.Split(0.7, rng.New(spec.Seed))
	x, xt := train.FeatureMatrix(false), test.FeatureMatrix(false)
	for _, model := range experiments.ModelNames {
		clf := experiments.ModelFactory(model)()
		start := time.Now()
		sp := b.tr.begin(0, "classifier", familyOf[model])
		err := clf.Fit(x, train.Y, nil)
		if err == nil {
			classifier.PredictAll(clf, xt)
		}
		b.tr.end(sp)
		if err != nil {
			return fmt.Errorf("fitting %s: %w", model, err)
		}
		set("classifier.fit_s."+familyOf[model], time.Since(start).Seconds(), "s")
	}
	return nil
}

// probeMetrics times the full metric evaluation of one fitted baseline
// on the spec's test split.
func probeMetrics(b *bench, spec experiments.Spec, set func(string, float64, string)) error {
	src, err := source(spec)
	if err != nil {
		return err
	}
	train, test := src.Data.Split(0.7, rng.New(spec.Seed))
	a, err := registry.New("LR", registry.Config{Graph: src.Graph, Seed: spec.Seed})
	if err != nil {
		return err
	}
	if err := a.Fit(train); err != nil {
		return err
	}
	yhat, err := a.Predict(test)
	if err != nil {
		return err
	}
	v, err := timeMedian(func() error {
		sp := b.tr.begin(0, "metrics", "Compute")
		metrics.Normalize(metrics.ComputeFairness(test, yhat, a, src.Graph))
		metrics.ComputeCorrectness(test.Y, yhat)
		b.tr.end(sp)
		return nil
	})
	if err != nil {
		return err
	}
	set("metrics.eval_s", v, "s")
	return nil
}

// probeStore writes the grid's cells into a fresh on-disk store under
// the keys the engine uses, reads them back, and returns the store's
// directory, which then serves the grid warm.
func probeStore(b *bench, spec experiments.Spec, cells []experiments.Cell, set func(string, float64, string)) (string, error) {
	g, err := experiments.Open(spec)
	if err != nil {
		return "", err
	}
	fp, err := g.Fingerprint()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(b.dir, "probe-store")
	os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return "", err
	}
	keys := make([]store.Key, len(cells))
	var put, get []float64
	for i, c := range cells {
		payload, err := json.Marshal(c)
		if err != nil {
			return "", err
		}
		keys[i] = store.Key{Fingerprint: fp, Index: c.Index, Seed: g.Spec().Seed, Arch: runtime.GOARCH}
		start := time.Now()
		sp := b.tr.begin(0, "store", "Put")
		err = st.Put(keys[i], payload)
		b.tr.end(sp)
		if err != nil {
			return "", err
		}
		put = append(put, time.Since(start).Seconds())
	}
	for _, k := range keys {
		start := time.Now()
		sp := b.tr.begin(0, "store", "Get")
		_, ok := st.Get(k)
		b.tr.end(sp)
		if !ok {
			return "", fmt.Errorf("store lost cell %d", k.Index)
		}
		get = append(get, time.Since(start).Seconds())
	}
	stats, err := st.Stats()
	if err != nil {
		return "", err
	}
	set("store.put_s", median(put), "s")
	set("store.get_s", median(get), "s")
	set("store.entry_bytes", float64(stats.Bytes)/float64(max(stats.Entries, 1)), "bytes")
	return dir, nil
}

// probeShard splits the grid into one envelope per CPU, served from the
// warm store, and times encoding, decoding and merging them.
func probeShard(b *bench, spec experiments.Spec, cacheDir string, set func(string, float64, string)) error {
	st, err := store.Open(cacheDir)
	if err != nil {
		return err
	}
	k := b.nproc
	envs := make([]*shard.Envelope, k)
	for i := range envs {
		if envs[i], err = experiments.RunShardContext(context.Background(), spec, i, k, st, 1); err != nil {
			return err
		}
	}
	var enc, dec, merge []float64
	size := 0
	for r := 0; r < probeReps; r++ {
		decoded := make([]*shard.Envelope, k)
		e, d := 0.0, 0.0
		size = 0
		for i, env := range envs {
			start := time.Now()
			sp := b.tr.begin(0, "shard", "Encode")
			data, err := env.Encode()
			b.tr.end(sp)
			if err != nil {
				return err
			}
			e += time.Since(start).Seconds()
			size += len(data)
			start = time.Now()
			sp = b.tr.begin(0, "shard", "Decode")
			decoded[i], err = shard.Decode(data)
			b.tr.end(sp)
			if err != nil {
				return err
			}
			d += time.Since(start).Seconds()
		}
		start := time.Now()
		sp := b.tr.begin(0, "shard", "Merge")
		_, err := shard.Merge(decoded)
		b.tr.end(sp)
		if err != nil {
			return err
		}
		enc, dec, merge = append(enc, e), append(dec, d), append(merge, time.Since(start).Seconds())
	}
	set("shard.encode_s", median(enc), "s")
	set("shard.decode_s", median(dec), "s")
	set("shard.merge_s", median(merge), "s")
	set("shard.envelope_bytes", float64(size), "bytes")
	return nil
}

// probeWarm serves the grids from a warm store through both warm engine
// paths: the in-process cache read and the directory-backed short-cut.
func probeWarm(b *bench, specs []experiments.Spec, cacheDir string, set func(string, float64, string)) error {
	eng := engine.New(engine.RunOptions{})
	run := func(opts engine.RunOptions) error {
		for _, spec := range specs {
			sp := b.tr.begin(0, "engine", "Run")
			_, rep, err := eng.Run(context.Background(), spec, opts)
			b.tr.end(sp)
			if err != nil {
				return err
			}
			if rep.CellsComputed != 0 {
				return fmt.Errorf("%s/%s computed %d cells on a warm store", spec.Experiment, spec.Dataset, rep.CellsComputed)
			}
		}
		return nil
	}
	v, err := timeMedian(func() error {
		return run(engine.RunOptions{Backend: engine.BackendInproc, CacheDir: cacheDir, Parallelism: b.nproc})
	})
	if err != nil {
		return err
	}
	set("engine.warm_inproc_s", v, "s")
	dir := filepath.Join(b.dir, "probe-warm-run")
	v, err = timeMedian(func() error {
		return run(engine.RunOptions{Backend: engine.BackendDispatch, Dir: dir, CacheDir: cacheDir})
	})
	if err != nil {
		return err
	}
	set("engine.warm_dir_s", v, "s")
	return nil
}

// probeServe runs a few traced ops of the serve workload for workloads
// that do not serve, and checks their tables like the workload would.
func probeServe(b *bench) (*serveStats, error) {
	sw := &serveWorkload{}
	defer sw.close()
	if err := sw.setup(b); err != nil {
		return nil, err
	}
	for i := 0; i < probeReps; i++ {
		if _, err := sw.op(b, i, 0); err != nil {
			return nil, err
		}
	}
	bad, err := sw.verify(b)
	if err != nil {
		return nil, err
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("%d served tables differ from the serial reference", len(bad))
	}
	return &sw.stats, nil
}

// serveMetrics turns traced serve ops into the serve and dispatch
// metrics.
func serveMetrics(b *bench, st *serveStats, set func(string, float64, string)) error {
	if st.ops == 0 || st.ranges == 0 {
		return fmt.Errorf("no traced served op completed")
	}
	specs := st.opSpecs
	if len(specs) > bareRuns {
		specs = specs[:bareRuns]
	}
	bare, err := bareEngineSeconds(b, specs)
	if err != nil {
		return err
	}
	set("serve.submit_s", median(st.submit), "s")
	set("serve.wait_s", median(st.wait), "s")
	set("serve.table_s", median(st.table), "s")
	set("serve.polls_per_op", float64(st.polls)/float64(st.ops), "count")
	set("serve.overhead_s", median(st.opSeconds)-bare, "s")
	set("dispatch.worker_s", median(st.workerWall), "s")
	set("dispatch.overhead_per_range_s", median(st.overhead), "s")
	set("dispatch.attempts_per_range", float64(st.spawns)/float64(st.ranges), "count")
	return nil
}
