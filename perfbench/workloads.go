package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fairbench/internal/engine"
	"fairbench/internal/experiments"
	"fairbench/internal/report"
	"fairbench/internal/store"
	"fairbench/internal/synth"
)

// bench is the state one benchmark process shares across its workload,
// verification and probes.
type bench struct {
	seed  int64
	nproc int
	dir   string // scratch directory, removed when the run ends
	tr    *tracer
	// refs memoizes serial references by spec; guarded by refsMu.
	refsMu sync.Mutex
	refs   map[string]*reference
	// spawns counts worker subprocesses the serve daemon launched.
	spawns atomic.Int64
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup prepares the workload from scratch; when it runs several
	// times, the last set-up is kept.
	setup(b *bench) error
	// op runs timed operation i under the span parent and returns the
	// grid cells it delivered.
	op(b *bench, i, parent int) (cells int, err error)
	// verify compares every op's output with a serial reference and
	// returns the ops that did not match.
	verify(b *bench) (map[int]bool, error)
	// probe describes the inputs the layer probes use.
	probe(b *bench) probeInputs
	// close releases what setup made.
	close()
}

var workloads = map[string]func(b *bench) workload{
	"fig7-cold": func(b *bench) workload {
		return &coldWorkload{
			spec:       experiments.Spec{Experiment: "fig7", Dataset: "adult", N: 5000, Seed: b.seed},
			workers:    b.nproc,
			storePerOp: true,
		}
	},
	"fig10-cold": func(b *bench) workload {
		return &coldWorkload{
			spec:    experiments.Spec{Experiment: "fig10", Dataset: "adult", N: 1000, Seed: b.seed},
			workers: 1,
		}
	},
	"warm-grids":  func(b *bench) workload { return &warmWorkload{} },
	"serve-local": func(b *bench) workload { return &serveWorkload{} },
}

// smallN is the dataset size of the warm, served and probe grids.
const smallN = 300

func specKey(s experiments.Spec) string {
	data, _ := json.Marshal(s) // a Spec always encodes
	return string(data)
}

// materialize synthesizes the dataset spec names directly, bypassing the
// experiments package's per-process memo, so every set-up pays for it.
func materialize(b *bench, spec experiments.Spec) error {
	sp := b.tr.begin(0, "synth", spec.Dataset)
	defer b.tr.end(sp)
	src, err := source(spec)
	if err != nil {
		return err
	}
	if src.Data.Len() == 0 {
		return fmt.Errorf("%s materialized no rows", spec.Dataset)
	}
	return nil
}

// source synthesizes the dataset the spec names.
func source(spec experiments.Spec) (*synth.Source, error) {
	switch spec.Dataset {
	case "adult":
		return synth.Adult(spec.N, spec.Seed), nil
	case "compas":
		return synth.COMPAS(spec.N, spec.Seed), nil
	case "german":
		return synth.German(spec.N, spec.Seed), nil
	}
	return nil, fmt.Errorf("unknown dataset %q", spec.Dataset)
}

// reference is a grid's serial result: its output and the table it
// renders with the timing columns stripped.
type reference struct {
	out     *experiments.Output
	table   string
	seconds float64 // wall time of the serial RunAll
}

// serialReference computes (once per process) the spec's grid on one
// worker with no cache — the result every other path must reproduce.
func (b *bench) serialReference(spec experiments.Spec) (*reference, error) {
	key := specKey(spec)
	b.refsMu.Lock()
	r, ok := b.refs[key]
	b.refsMu.Unlock()
	if ok {
		return r, nil
	}
	g, err := experiments.Open(spec)
	if err != nil {
		return nil, err
	}
	g.SetCache(nil)
	g.SetWorkers(1)
	start := time.Now()
	sp := b.tr.begin(0, "experiments", "RunAll")
	out, err := g.RunAll()
	b.tr.end(sp)
	if err != nil {
		return nil, err
	}
	r = &reference{out: out, seconds: time.Since(start).Seconds()}
	table, err := render(out)
	if err != nil {
		return nil, err
	}
	r.table = stripTiming(table)
	b.refsMu.Lock()
	if b.refs == nil {
		b.refs = map[string]*reference{}
	}
	b.refs[key] = r
	b.refsMu.Unlock()
	return r, nil
}

// serialReferences computes the references of many specs, one grid per
// CPU at a time; each grid still runs on one worker.
func (b *bench) serialReferences(specs []experiments.Spec) error {
	sem := make(chan struct{}, b.nproc)
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			_, errs[i] = b.serialReference(spec)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func render(out *experiments.Output) (string, error) {
	var sb strings.Builder
	if err := report.RenderOutput(&sb, out); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// stripTiming removes the wall-time columns from rendered tables so two
// runs of one grid compare byte for byte. The only timing column is the
// last one of the per-approach tables, "overhead(s)"; earlier columns
// keep their positions because the renderer pads left to right.
func stripTiming(table string) string {
	lines := strings.Split(table, "\n")
	cut := -1
	for i, line := range lines {
		if line == "" {
			cut = -1
			continue
		}
		if p := strings.Index(line, "overhead(s)"); p >= 0 {
			cut = p
		}
		if cut >= 0 && len(line) > cut {
			lines[i] = line[:cut]
		}
	}
	return strings.Join(lines, "\n")
}

// coldWorkload runs one grid cold through the in-process engine on every
// op: nothing is cached between ops.
type coldWorkload struct {
	spec    experiments.Spec
	workers int
	// storePerOp gives every op a fresh on-disk result store, so every
	// cell is written through.
	storePerOp bool
	tables     map[int]string
	counts     storeCounts
}

// storeCounts sums the result-store counters of traced ops.
type storeCounts struct {
	store.Counters
	ops int
}

// add records one traced op's counters.
func (c *storeCounts) add(s store.Counters) {
	c.ops++
	c.Hits += s.Hits
	c.Misses += s.Misses
	c.Writes += s.Writes
	c.Rejected += s.Rejected
}

func (w *coldWorkload) setup(b *bench) error {
	w.tables = map[int]string{}
	w.counts = storeCounts{}
	if err := materialize(b, w.spec); err != nil {
		return err
	}
	_, err := experiments.Open(w.spec)
	return err
}

func (w *coldWorkload) op(b *bench, i, parent int) (int, error) {
	opts := engine.RunOptions{Backend: engine.BackendInproc, Parallelism: w.workers}
	if w.storePerOp {
		opts.CacheDir = filepath.Join(b.dir, fmt.Sprintf("store-op%d", i))
		defer os.RemoveAll(opts.CacheDir)
	}
	sp := b.tr.begin(parent, "engine", "Run")
	out, rep, err := engine.New(engine.RunOptions{}).Run(context.Background(), w.spec, opts)
	b.tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = b.tr.begin(parent, "report", "RenderOutput")
	table, err := render(out)
	b.tr.end(sp)
	if err != nil {
		return 0, err
	}
	w.tables[i] = stripTiming(table)
	if b.tr.enabled() {
		w.counts.add(rep.CacheStats)
	}
	return rep.CellsComputed + rep.CellsCached, nil
}

func (w *coldWorkload) verify(b *bench) (map[int]bool, error) {
	ref, err := b.serialReference(w.spec)
	if err != nil {
		return nil, err
	}
	bad := map[int]bool{}
	for i, t := range w.tables {
		if t != ref.table {
			bad[i] = true
		}
	}
	return bad, nil
}

func (w *coldWorkload) probe(b *bench) probeInputs {
	return probeInputs{primary: w.spec, opSpecs: []experiments.Spec{w.spec}, counts: w.counts}
}

func (w *coldWorkload) close() {}

// warmGridSpecs are the grids the warm workload serves: Figure 7, the
// cross-validation table and Figure 15 on each dataset, plus Figures 22,
// 9 and 10 on their paper datasets.
func warmGridSpecs(seed int64) []experiments.Spec {
	var specs []experiments.Spec
	for _, ds := range []string{"adult", "compas", "german"} {
		for _, exp := range []string{"fig7", "cv", "fig15"} {
			specs = append(specs, experiments.Spec{Experiment: exp, Dataset: ds, N: smallN, Seed: seed})
		}
	}
	for _, exp := range []string{"fig22", "fig9", "fig10"} {
		s, _ := experiments.Spec{Experiment: exp, N: smallN, Seed: seed}.Normalize() // fills the paper dataset
		specs = append(specs, experiments.Spec{Experiment: exp, Dataset: s.Dataset, N: smallN, Seed: seed})
	}
	return specs
}

// warmWorkload serves a fully cached set of grids through the
// directory-backed engine path on every op: nothing is fitted.
type warmWorkload struct {
	specs    []experiments.Spec
	cacheDir string
	refs     []string // the cold population's tables, computed serially
	outs     []*experiments.Output
	tables   map[int][]string
	counts   storeCounts
	rep      int
}

// setup populates a fresh result store by running every grid cold on one
// worker; the population doubles as the serial reference.
func (w *warmWorkload) setup(b *bench) error {
	w.specs = warmGridSpecs(b.seed)
	w.rep++
	w.cacheDir = filepath.Join(b.dir, fmt.Sprintf("warm-cache%d", w.rep))
	w.tables = map[int][]string{}
	w.counts = storeCounts{}
	w.refs, w.outs = nil, nil
	for _, ds := range []string{"adult", "compas", "german"} {
		if err := materialize(b, experiments.Spec{Dataset: ds, N: smallN, Seed: b.seed}); err != nil {
			return err
		}
	}
	eng := engine.New(engine.RunOptions{})
	for _, spec := range w.specs {
		out, rep, err := eng.Run(context.Background(), spec, engine.RunOptions{
			Backend: engine.BackendInproc, CacheDir: w.cacheDir, Parallelism: 1})
		if err != nil {
			return err
		}
		if rep.CellsCached != 0 {
			return fmt.Errorf("%s/%s: fresh store served %d cells", spec.Experiment, spec.Dataset, rep.CellsCached)
		}
		table, err := render(out)
		if err != nil {
			return err
		}
		w.refs = append(w.refs, stripTiming(table))
		w.outs = append(w.outs, out)
	}
	return nil
}

func (w *warmWorkload) op(b *bench, i, parent int) (int, error) {
	eng := engine.New(engine.RunOptions{})
	dir := filepath.Join(b.dir, "warm-run")
	cells := 0
	var counters store.Counters
	tables := make([]string, len(w.specs))
	for k, spec := range w.specs {
		sp := b.tr.begin(parent, "engine", "Run")
		out, rep, err := eng.Run(context.Background(), spec, engine.RunOptions{
			Backend: engine.BackendDispatch, Dir: dir, CacheDir: w.cacheDir})
		b.tr.end(sp)
		if err != nil {
			return 0, err
		}
		if !rep.ServedFromCache || rep.CellsComputed != 0 || rep.CacheStats.Rejected != 0 {
			return 0, fmt.Errorf("%s/%s not served warm: computed=%d cached=%d rejected=%d",
				spec.Experiment, spec.Dataset, rep.CellsComputed, rep.CellsCached, rep.CacheStats.Rejected)
		}
		sp = b.tr.begin(parent, "report", "RenderOutput")
		table, err := render(out)
		b.tr.end(sp)
		if err != nil {
			return 0, err
		}
		tables[k] = table
		cells += rep.CellsCached
		counters.Hits += rep.CacheStats.Hits
		counters.Misses += rep.CacheStats.Misses
		counters.Writes += rep.CacheStats.Writes
		counters.Rejected += rep.CacheStats.Rejected
	}
	w.tables[i] = tables
	if b.tr.enabled() {
		w.counts.add(counters)
	}
	return cells, nil
}

func (w *warmWorkload) verify(b *bench) (map[int]bool, error) {
	bad := map[int]bool{}
	for i, tables := range w.tables {
		for k, t := range tables {
			if stripTiming(t) != w.refs[k] {
				bad[i] = true
			}
		}
	}
	return bad, nil
}

func (w *warmWorkload) probe(b *bench) probeInputs {
	return probeInputs{
		primary:  experiments.Spec{Experiment: "fig7", Dataset: "german", N: smallN, Seed: b.seed},
		opSpecs:  w.specs,
		outs:     w.outs,
		cacheDir: w.cacheDir,
		counts:   w.counts,
	}
}

func (w *warmWorkload) close() {
	if w.cacheDir != "" {
		os.RemoveAll(w.cacheDir)
	}
}
