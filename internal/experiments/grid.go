package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"fairbench/internal/causal"
	"fairbench/internal/corrupt"
	"fairbench/internal/dataset"
	"fairbench/internal/registry"
	"fairbench/internal/runner"
	"fairbench/internal/shard"
	"fairbench/internal/store"
	"fairbench/internal/synth"
)

// Spec is the serializable identity of one experiment grid: enough to
// rebuild the exact same (approach × dataset-slice) job list in any
// process. The benchmark datasets are synthesized from seeds, so a Spec
// fully determines every cell's inputs — which is what makes cross-process
// sharding sound: two processes that Open the same Spec compute the same
// grid, and cell i is the same computation in both.
//
// Nil/zero optional fields select the experiment's paper defaults (see
// Normalize). The canonical JSON encoding of the normalized Spec, plus
// the grid's job count, is hashed into the shard fingerprint.
type Spec struct {
	// Experiment names the driver: fig7, fig9, fig10, fig15, cv, fig22,
	// fig23, fig8rows, or fig8attrs.
	Experiment string `json:"experiment"`
	// Dataset is adult, compas, or german. Required for the
	// dataset-parameterized drivers (fig7, fig15, cv); the fixed-dataset
	// figures default to the paper's choice (fig9 → compas, rest → adult).
	Dataset string `json:"dataset,omitempty"`
	// N caps the generated dataset size (0 = the paper's full size, and
	// at most that size: see synth.PaperSize).
	N int `json:"n,omitempty"`
	// Seed is the experiment's global seed.
	Seed int64 `json:"seed"`
	// Names overrides the evaluated approach set (nil = the driver's
	// default). fig7/fig9/cv/fig22 always evaluate the full set and
	// ignore this.
	Names []string `json:"names,omitempty"`
	// K is the cross-validation fold count (cv only; default 5; at most
	// MaxAxis).
	K int `json:"k,omitempty"`
	// Runs is the random-fold count (fig22 only; default 10; at most
	// MaxAxis).
	Runs int `json:"runs,omitempty"`
	// Sizes are the training sizes (fig8rows, fig23; default depends on N;
	// at most MaxAxis of them).
	Sizes []int `json:"sizes,omitempty"`
	// AttrCounts are the attribute prefixes (fig8attrs; default 2,4,6,8,9;
	// at most MaxAxis of them).
	AttrCounts []int `json:"attrCounts,omitempty"`
	// SampleSize is the fig8attrs sample (default 8000, capped at N).
	SampleSize int `json:"sampleSize,omitempty"`
	// Bias selects a bias-injection model applied to the synthesized
	// dataset before the grid is materialized: "" (clean data), "under"
	// (under-representation: unprivileged tuples dropped by label
	// stratum), or "label" (label bias: unprivileged labels flipped).
	// Valid on every experiment — it multiplies the scenario space rather
	// than adding a driver. Injection is seeded from Seed through
	// per-tuple rng.Derive streams (see internal/corrupt), so a biased
	// grid shards and parallelizes exactly like a clean one. The bias
	// fields are part of the canonical spec and therefore of the grid
	// fingerprint: results computed under one bias setting can never be
	// merged with, or served from cache to, another.
	Bias string `json:"bias,omitempty"`
	// BiasRate is the injection rate: β⁺ (the positive-label drop rate)
	// for under-representation, ν (the flip rate) for label bias.
	BiasRate float64 `json:"biasRate,omitempty"`
	// BiasRateNeg is under-representation's β⁻ (the negative-label drop
	// rate). Unused — and cleared by Normalize — for the other models.
	BiasRateNeg float64 `json:"biasRateNeg,omitempty"`
}

// MaxAxis bounds every count a Spec sets on a grid axis: the approach
// names, K, Runs, and the number of Sizes and AttrCounts. The paper's
// largest is 10. Normalize rejects a spec above it, so a request cannot
// make a process build an arbitrarily large grid.
const MaxAxis = 100

// Bias-model names Spec.Bias accepts.
const (
	// BiasUnder is parameterized under-representation.
	BiasUnder = "under"
	// BiasLabel is parameterized label bias.
	BiasLabel = "label"
)

// BiasLabelText renders the spec's bias setting for table titles and
// logs: empty for a clean grid.
func (s Spec) BiasLabelText() string {
	switch s.Bias {
	case BiasUnder:
		return fmt.Sprintf("under-representation β⁺=%g β⁻=%g", s.BiasRate, s.BiasRateNeg)
	case BiasLabel:
		return fmt.Sprintf("label bias ν=%g", s.BiasRate)
	}
	return ""
}

// DefaultFig8Sizes returns the Figure 8(a-c) training sizes for a dataset
// cap of n (0 = paper size). Shared by the CLI and Spec normalization so
// a sharded run defaults to exactly the grid a serial run would.
func DefaultFig8Sizes(n int) []int {
	if n <= 0 {
		return []int{1000, 5000, 10000, 20000, 30000}
	}
	var sizes []int
	for _, s := range []int{500, 1000, 2000, 4000} {
		if s <= n {
			sizes = append(sizes, s)
		}
	}
	return sizes
}

// DefaultFig8AttrCounts returns the Figure 8(d-f) attribute prefixes.
func DefaultFig8AttrCounts() []int { return []int{2, 4, 6, 8, 9} }

// DefaultFig8Sample returns the Figure 8(d-f) sample size under cap n.
func DefaultFig8Sample(n int) int {
	if n > 0 && n < 8000 {
		return n
	}
	return 8000
}

// DefaultFig23Sizes returns the Figure 23 training sizes under cap n.
func DefaultFig23Sizes(n int) []int {
	if n <= 0 {
		return []int{100, 500, 1000, 5000, 10000, 20000}
	}
	var sizes []int
	for _, s := range []int{100, 500, 1000, 2000} {
		if s <= n {
			sizes = append(sizes, s)
		}
	}
	return sizes
}

// DefaultSensitivityApproaches lists the pre- and post-processing
// approaches of the Figure 10 / Figure 21 model-sensitivity study.
var DefaultSensitivityApproaches = []string{
	"KamCal-DP", "Feld-DP", "Calmon-DP", "ZhaWu-PSF", "ZhaWu-DCE",
	"Salimi-JF-MaxSAT", "KamKar-DP", "Hardt-EO", "Pleiss-EOP",
}

// Normalize lower-cases the identity fields, fills paper defaults, and
// validates the spec. Fingerprints are computed over the normalized form,
// so two specs that materialize the same grid always merge.
func (s Spec) Normalize() (Spec, error) {
	s.Experiment = strings.ToLower(strings.TrimSpace(s.Experiment))
	s.Dataset = strings.ToLower(strings.TrimSpace(s.Dataset))
	switch s.Experiment {
	case "fig7", "fig15", "cv":
		if s.Dataset == "" {
			return s, fmt.Errorf("experiments: %s requires an explicit dataset", s.Experiment)
		}
	case "fig9":
		if s.Dataset == "" {
			s.Dataset = "compas"
		}
	case "fig10", "fig22", "fig23", "fig8rows", "fig8attrs":
		if s.Dataset == "" {
			s.Dataset = "adult"
		}
	default:
		return s, fmt.Errorf("experiments: unknown experiment %q", s.Experiment)
	}
	// Bounded before anything is synthesized: a spec may arrive from an
	// untrusted request.
	if err := synth.CheckSize(s.Dataset, s.N); err != nil {
		return s, fmt.Errorf("experiments: %w", err)
	}
	s.Bias = strings.ToLower(strings.TrimSpace(s.Bias))
	switch s.Bias {
	case "":
		// Clean grid: stray rates must not perturb the fingerprint.
		if s.BiasRate != 0 || s.BiasRateNeg != 0 {
			return s, fmt.Errorf("experiments: bias rate set without a bias model (want -bias under|label)")
		}
	case BiasUnder:
		if s.BiasRate < 0 || s.BiasRate >= 1 || s.BiasRateNeg < 0 || s.BiasRateNeg >= 1 {
			return s, fmt.Errorf("experiments: under-representation rates β⁺=%v β⁻=%v outside [0,1)", s.BiasRate, s.BiasRateNeg)
		}
		if s.BiasRate == 0 && s.BiasRateNeg == 0 {
			return s, fmt.Errorf("experiments: bias model %q needs a positive rate", s.Bias)
		}
	case BiasLabel:
		if s.BiasRate <= 0 || s.BiasRate > 1 {
			return s, fmt.Errorf("experiments: label-bias rate ν=%v outside (0,1]", s.BiasRate)
		}
		s.BiasRateNeg = 0 // β⁻ is an under-representation knob only
	default:
		return s, fmt.Errorf("experiments: unknown bias model %q (want under or label)", s.Bias)
	}
	// Clear every field the experiment ignores before the canonical
	// encoding: two specs that materialize the same grid must fingerprint
	// identically, so stray values in unused fields cannot block a merge.
	switch s.Experiment {
	case "fig10", "fig23", "fig8rows", "fig8attrs":
	default:
		s.Names = nil // these drivers always evaluate their fixed set
	}
	if s.Experiment != "cv" {
		s.K = 0
	}
	if s.Experiment != "fig22" {
		s.Runs = 0
	}
	if s.Experiment != "fig23" && s.Experiment != "fig8rows" {
		s.Sizes = nil
	}
	if s.Experiment != "fig8attrs" {
		s.AttrCounts, s.SampleSize = nil, 0
	}
	if len(s.Names) > MaxAxis || s.K > MaxAxis || s.Runs > MaxAxis || len(s.Sizes) > MaxAxis || len(s.AttrCounts) > MaxAxis {
		return s, fmt.Errorf("experiments: %d names, k=%d, runs=%d, %d sizes, %d attrCounts: each must be at most %d",
			len(s.Names), s.K, s.Runs, len(s.Sizes), len(s.AttrCounts), MaxAxis)
	}
	for _, vs := range [][]int{s.Sizes, s.AttrCounts} {
		for _, v := range vs {
			if v <= 0 {
				return s, fmt.Errorf("experiments: sizes and attrCounts must be positive, got %d", v)
			}
		}
	}
	if s.SampleSize < 0 {
		return s, fmt.Errorf("experiments: sampleSize=%d is negative", s.SampleSize)
	}
	switch s.Experiment {
	case "cv":
		if s.K == 0 {
			s.K = 5
		}
		if s.K < 2 {
			return s, fmt.Errorf("experiments: cv needs k >= 2, got %d", s.K)
		}
	case "fig22":
		if s.Runs == 0 {
			s.Runs = 10
		}
		if s.Runs < 1 {
			return s, fmt.Errorf("experiments: fig22 needs runs >= 1, got %d", s.Runs)
		}
	case "fig23":
		if s.Sizes == nil {
			s.Sizes = DefaultFig23Sizes(s.N)
		}
	case "fig8rows":
		if s.Sizes == nil {
			s.Sizes = DefaultFig8Sizes(s.N)
		}
	case "fig8attrs":
		if s.AttrCounts == nil {
			s.AttrCounts = DefaultFig8AttrCounts()
		}
		if s.SampleSize == 0 {
			s.SampleSize = DefaultFig8Sample(s.N)
		}
	}
	return s, nil
}

// Cell is the serializable result of one grid job. Exactly one payload
// field is set, matching the grid's kind: Row for the metric grids, Sens
// for the model-sensitivity grid, Seconds for the pure-timing scalability
// grids. All payloads survive a JSON round trip bit-exactly (Go prints
// floats in shortest-round-trip form), so a cell computed on another host
// merges into output identical to a local run's.
type Cell struct {
	Index   int             `json:"index"`
	Row     *Row            `json:"row,omitempty"`
	Sens    *SensitivityRow `json:"sens,omitempty"`
	Seconds *float64        `json:"seconds,omitempty"`
	// Cached records provenance: true when this cell was served from the
	// result cache rather than computed by the process that returned it.
	// The flag is never part of a cached payload (entries store the cell
	// as computed), so a warm run's payloads stay byte-identical to cold.
	Cached bool `json:"cached,omitempty"`
}

// Output is a fully assembled grid result; exactly one payload field is
// populated, matching the experiment. It is what RunAll and Assemble
// return and what MergeShards rebuilds from a shard set.
type Output struct {
	Experiment  string                        `json:"experiment,omitempty"`
	Spec        Spec                          `json:"spec"`
	Rows        []Row                         `json:"rows,omitempty"`
	Robustness  []RobustnessResult            `json:"robustness,omitempty"`
	Sensitivity []SensitivityRow              `json:"sensitivity,omitempty"`
	Stability   []StabilityRow                `json:"stability,omitempty"`
	Efficiency  map[string][]EfficiencyPoint  `json:"efficiency,omitempty"`
	Scalability map[string][]ScalabilityPoint `json:"scalability,omitempty"`
}

type gridKind int

const (
	kindMetric gridKind = iota // cells are evaluation Rows
	kindSens                   // cells are SensitivityRows
	kindScale                  // cells are wall-time seconds
)

// Grid is a materialized experiment job grid: an enumerable, indexable
// list of independent cells plus the post-pass that assembles cell
// results into the driver's native output. Grids replace the drivers'
// earlier closure-only job lists — because every cell is addressable by a
// global index, any contiguous index range can run in any process (see
// RunRange and internal/shard) and the assembled output cannot depend on
// where cells ran.
type Grid struct {
	spec     Spec
	specJSON []byte // canonical encoding; nil when built directly from a Source
	kind     gridKind
	graph    *causal.Graph
	seed     int64
	// kindMetric: slices × names, names[0] conventionally the baseline.
	slices []splitPair
	// strata holds each metric or sensitivity slice's test-split causal
	// strata, built by the slice's first cell to reach its metric pass.
	strata    []*testStrata
	names     []string
	sliceSeed func(si int) int64
	// kindSens: models × names.
	models []string
	// kindScale: scale × (1 baseline + names) timing columns.
	scale    []scaleSlice
	assemble func(g *Grid, cells []Cell) (*Output, error)
	// cache, when non-nil on a grid opened from a Spec, short-circuits
	// RunRange cells through the result store (disk, remote, or tiered).
	cache store.Backend
	// workers sizes the runner pool of this grid's RunRange calls; 0 is
	// one worker per CPU (see SetWorkers).
	workers int
}

// Open materializes the grid a Spec describes: it normalizes the spec,
// synthesizes the dataset from the spec's seed, and prepares every
// dataset slice. Opening is cheap relative to running (no approach is
// fitted); both the shard planner and the merger use it.
func Open(spec Spec) (*Grid, error) {
	ns, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	src, err := sourceFor(ns.Dataset, ns.N, ns.Seed)
	if err != nil {
		return nil, err
	}
	if ns.Bias != "" {
		if src, err = biasedSource(src, ns); err != nil {
			return nil, err
		}
	}
	var g *Grid
	switch ns.Experiment {
	case "fig7":
		g = fig7Grid(src, ns.Seed)
	case "fig15":
		g = extensionsGrid(src, ns.Seed)
	case "fig9":
		g, err = robustnessGrid(src, ns.Seed)
	case "cv":
		g = cvGrid(src, ns.K, ns.Seed)
	case "fig22":
		g = stabilityGrid(src, ns.Runs, ns.Seed)
	case "fig23":
		g = efficiencyGrid(src, ns.Sizes, ns.Names, ns.Seed)
	case "fig10":
		g = sensitivityGrid(src, ns.Names, ns.Seed)
	case "fig8rows":
		g = scaleRowsGrid(src, ns.Sizes, specNames(ns), ns.Seed)
	case "fig8attrs":
		g = scaleAttrsGrid(src, ns.AttrCounts, specNames(ns), ns.SampleSize, ns.Seed)
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q", ns.Experiment)
	}
	if err != nil {
		return nil, err
	}
	canonical, err := json.Marshal(ns)
	if err != nil {
		return nil, err
	}
	g.spec, g.specJSON = ns, canonical
	return g, nil
}

// SetCache installs the grid's result store (nil, the state Open
// leaves, runs every cell cold). RunRange then serves each cell the
// store verifies and writes back each cell it computes.
func (g *Grid) SetCache(s store.Backend) { g.cache = s }

// SetWorkers pins the worker-pool size this grid's RunRange calls use
// (n <= 0, the state Open leaves, is one worker per CPU). It is how
// engine.RunOptions.Parallelism reaches the in-process pool; the
// pure-timing grids ignore it and always run with one worker.
func (g *Grid) SetWorkers(n int) { g.workers = n }

// specNames resolves a spec's approach override for the scalability
// grids, whose driver default is the full registry.
func specNames(s Spec) []string {
	if s.Names != nil {
		return s.Names
	}
	return registry.Names
}

// sourceKey identifies one deterministic materialization of a benchmark
// dataset: the generators are pure functions of (dataset, n, seed).
type sourceKey struct {
	dataset string
	n       int
	seed    int64
}

// sourceMemoCap bounds the source memo. It is at least 3, so one seed of
// each of the three benchmark datasets stays resident across the grids
// of a warm run; beyond it, a process that keeps receiving fresh seeds
// (a serve daemon) holds only the most recently used sources.
const sourceMemoCap = 8

// sourceMemo caches the most recently used materialized sources per
// process. Every fingerprinted execution path — Open, and through it
// PlanShards, RunShardContext and the merge validation — funnels through
// sourceFor, so one run synthesizes each (dataset, n, seed) once no
// matter how many grids, shards, or verification passes touch it while
// it stays resident. The memoized Source is shared read-only: grid slices
// are zero-copy views into its flat backing (the dataset view contract),
// and every mutating consumer Clones first, so concurrent cells and
// workers race-cleanly share one materialization. Eviction only drops the
// memo's reference; grids already holding the source keep it alive, and
// a later Open re-synthesizes identical data.
var sourceMemo struct {
	mu      sync.Mutex
	entries []*sourceEntry // least recently used first
}

// sourceEntry is one memoized materialization; once makes concurrent
// Opens of its key share a single synthesis.
type sourceEntry struct {
	key  sourceKey
	once sync.Once
	src  *synth.Source
}

// memoEntry returns key's memo entry, creating it if absent, and marks it
// most recently used, evicting the least recently used entry when the
// memo is full.
func memoEntry(key sourceKey) *sourceEntry {
	sourceMemo.mu.Lock()
	defer sourceMemo.mu.Unlock()
	es := sourceMemo.entries
	for i, e := range es {
		if e.key == key {
			copy(es[i:], es[i+1:])
			es[len(es)-1] = e
			return e
		}
	}
	if len(es) == sourceMemoCap {
		copy(es, es[1:])
		es = es[:len(es)-1]
	}
	e := &sourceEntry{key: key}
	sourceMemo.entries = append(es, e)
	return e
}

// biasedSource applies the spec's bias-injection model to a pristine
// benchmark source. The memoized clean source is shared read-only —
// under-representation keeps zero-copy views into its backing, label
// bias copies only the label column — and injection itself is
// deterministic per tuple (rng.Derive streams inside internal/corrupt),
// so every process that Opens this spec sees bit-identical biased data
// regardless of parallelism or sharding.
func biasedSource(src *synth.Source, ns Spec) (*synth.Source, error) {
	var (
		biased *dataset.Dataset
		err    error
	)
	switch ns.Bias {
	case BiasUnder:
		biased, err = corrupt.UnderRepresent(src.Data, ns.BiasRate, ns.BiasRateNeg, ns.Seed)
	case BiasLabel:
		biased, err = corrupt.FlipLabels(src.Data, ns.BiasRate, ns.Seed)
	default:
		err = fmt.Errorf("experiments: unknown bias model %q", ns.Bias)
	}
	if err != nil {
		return nil, err
	}
	return &synth.Source{Data: biased, Graph: src.Graph}, nil
}

// sourceFor materializes (or recalls) the benchmark source a spec names.
func sourceFor(dataset string, n int, seed int64) (*synth.Source, error) {
	var gen func(int, int64) *synth.Source
	switch dataset {
	case "adult":
		gen = synth.Adult
	case "compas":
		gen = synth.COMPAS
	case "german":
		gen = synth.German
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", dataset)
	}
	e := memoEntry(sourceKey{dataset: dataset, n: n, seed: seed})
	e.once.Do(func() { e.src = gen(n, seed) })
	return e.src, nil
}

// Spec returns the grid's normalized spec (zero value for grids built
// directly from a Source rather than Open).
func (g *Grid) Spec() Spec { return g.spec }

// Len returns the grid's total job count.
func (g *Grid) Len() int {
	switch g.kind {
	case kindSens:
		return len(g.models) * len(g.names)
	case kindScale:
		return len(g.scale) * (len(g.names) + 1)
	default:
		return len(g.slices) * len(g.names)
	}
}

// alignment returns the shard-boundary constraint for the grid's job
// index space. The pure-timing scalability grids subtract a per-slice
// baseline from the other timing columns of the same slice, so all of a
// slice's columns must be measured by the same process — their shards
// align to whole slices. Metric grids need no alignment: every cell is
// self-contained.
func (g *Grid) alignment() int {
	if g.kind == kindScale {
		return len(g.names) + 1
	}
	return 1
}

// Fingerprint returns the grid's shard fingerprint: a hash of the
// canonical spec and the job count. Only grids materialized by Open can
// be sharded across processes, because only a Spec travels.
func (g *Grid) Fingerprint() (string, error) {
	if g.specJSON == nil {
		return "", fmt.Errorf("experiments: grid was not opened from a Spec; cross-process sharding needs Open")
	}
	return shard.Fingerprint(g.specJSON, g.Len()), nil
}

// Cell computes grid job i. Per the runner's determinism contract the
// result depends only on i and the grid definition: every cell builds its
// own approach and random streams from explicit seeds, so a cell computes
// the same payload in any process, under any scheduling.
func (g *Grid) Cell(i int) (Cell, error) {
	if i < 0 || i >= g.Len() {
		return Cell{}, fmt.Errorf("experiments: cell %d outside grid [0,%d)", i, g.Len())
	}
	switch g.kind {
	case kindSens:
		model, name := g.models[i/len(g.names)], g.names[i%len(g.names)]
		a, err := registry.New(name, registry.Config{
			Graph: g.graph, Model: model, Seed: g.seed,
		})
		if err != nil {
			return Cell{}, err
		}
		row, err := evaluate(a, g.slices[0].train, g.strata[0])
		if err != nil {
			return Cell{}, err
		}
		return Cell{Index: i, Sens: &SensitivityRow{Approach: name, Model: model, Row: row}}, nil
	case kindScale:
		cols := len(g.names) + 1 // column 0 is the baseline LR
		sl, name := g.scale[i/cols], "LR"
		if ni := i % cols; ni > 0 {
			name = g.names[ni-1]
		}
		secs, err := timeOne(name, sl.train, sl.test, g.graph, g.seed)
		if err != nil {
			return Cell{}, err
		}
		return Cell{Index: i, Seconds: &secs}, nil
	default:
		si, ni := i/len(g.names), i%len(g.names)
		a, err := registry.New(g.names[ni], registry.Config{Graph: g.graph, Seed: g.sliceSeed(si)})
		if err != nil {
			return Cell{}, err
		}
		row, err := evaluate(a, g.slices[si].train, g.strata[si])
		if err != nil {
			return Cell{}, err
		}
		return Cell{Index: i, Row: &row}, nil
	}
}

// RunRange executes the contiguous cells [start, end) — one shard of the
// grid — across the runner pool and returns them in index order. The
// pure-timing scalability grids always run their cells with one worker so
// co-scheduled cells cannot contend for cores and corrupt the measured
// overhead; sharding is the sanctioned way to parallelize them, across
// isolated processes or hosts.
func (g *Grid) RunRange(start, end int) ([]Cell, error) {
	return g.RunRangeContext(context.Background(), start, end)
}

// RunRangeContext is RunRange under a cancellation context: once ctx is
// done, no further cell starts and the call fails fast with an error
// wrapping ctx.Err(). Cells already executing finish (a cell is pure
// computation with nothing to roll back); with the result cache installed
// their payloads are still written back, so a cancelled run checkpoints
// at cell granularity and a later run resumes from what completed.
func (g *Grid) RunRangeContext(ctx context.Context, start, end int) ([]Cell, error) {
	if start < 0 || end > g.Len() || start > end {
		return nil, fmt.Errorf("experiments: range [%d,%d) outside grid [0,%d)", start, end, g.Len())
	}
	// The model sweep is the one grid whose cells share work: they all fit
	// on one training split and differ only in their model, so arming the
	// split lets them share each approach's repair and base fit (see
	// dataset.BatchCache). Every other grid charges each cell its own
	// work. Arming changes who computes an artifact, never its value, so
	// a Cell loop, which arms nothing, stays the unshared reference.
	if g.kind == kindSens {
		g.slices[0].train.EnableBatchCache()
	}
	opts := runner.Options{Offset: start, Workers: g.workers}
	if g.kind == kindScale {
		opts.Workers = 1
	}
	job := g.Cell
	// Only grids materialized from a Spec have the stable identity the
	// cache keys on; a sourceless grid always computes.
	if c := g.cache; c != nil && g.specJSON != nil {
		fp := shard.Fingerprint(g.specJSON, g.Len())
		job = func(i int) (Cell, error) { return g.cachedCell(c, fp, i) }
	}
	if ctx.Done() != nil {
		inner := job
		job = func(i int) (Cell, error) {
			if err := ctx.Err(); err != nil {
				return Cell{}, err
			}
			return inner(i)
		}
	}
	return runner.Run(end-start, opts, job)
}

// cachedCell serves grid job i from the result cache when a verified
// entry exists, and computes-then-caches it otherwise. Cache write
// failures (full disk, permissions) never fail the run — the cell was
// computed; only resumability degrades. Note the cache stores whatever
// the cell computed, including the timing payloads of the pure-timing
// grids: a warm run reports the cold run's measurements, which is what
// resumability requires — clear the cache (or run without one) to
// re-measure.
func (g *Grid) cachedCell(c store.Backend, fp string, i int) (Cell, error) {
	key := store.Key{Fingerprint: fp, Index: i, Seed: g.spec.Seed, Arch: runtime.GOARCH}
	if payload, ok := c.Get(key); ok {
		var cell Cell
		// An entry that passed integrity checks but does not decode to
		// this grid's cell shape is treated as a miss and recomputed.
		if err := json.Unmarshal(payload, &cell); err == nil && cell.Index == i {
			cell.Cached = true
			return cell, nil
		}
	}
	cell, err := g.Cell(i)
	if err != nil {
		return Cell{}, err
	}
	if payload, err := json.Marshal(cell); err == nil {
		_ = c.Put(key, payload)
	}
	return cell, nil
}

// Assemble runs the driver's post-pass over a complete, index-ordered
// cell set (typically the concatenation of merged shards) and returns the
// driver-native output. The post-pass is pure arithmetic in cell order,
// so its floats match a single-process run bit for bit.
func (g *Grid) Assemble(cells []Cell) (*Output, error) {
	if len(cells) != g.Len() {
		return nil, fmt.Errorf("experiments: assembling %d cells, grid has %d", len(cells), g.Len())
	}
	for i := range cells {
		if cells[i].Index != i {
			return nil, fmt.Errorf("experiments: cell %d carries index %d", i, cells[i].Index)
		}
	}
	out, err := g.assemble(g, cells)
	if err != nil {
		return nil, err
	}
	out.Experiment, out.Spec = g.spec.Experiment, g.spec
	return out, nil
}

// RunAll executes the whole grid in this process and assembles it — the
// single-process reference a sharded run must reproduce.
func (g *Grid) RunAll() (*Output, error) {
	cells, err := g.RunRange(0, g.Len())
	if err != nil {
		return nil, err
	}
	return g.Assemble(cells)
}

// cellRows unwraps a metric grid's cells.
func cellRows(cells []Cell) ([]Row, error) {
	rows := make([]Row, len(cells))
	for i := range cells {
		if cells[i].Row == nil {
			return nil, fmt.Errorf("experiments: cell %d has no row payload", i)
		}
		rows[i] = *cells[i].Row
	}
	return rows, nil
}

// cellSeconds unwraps a scalability grid's cells.
func cellSeconds(cells []Cell) ([]float64, error) {
	secs := make([]float64, len(cells))
	for i := range cells {
		if cells[i].Seconds == nil {
			return nil, fmt.Errorf("experiments: cell %d has no timing payload", i)
		}
		secs[i] = *cells[i].Seconds
	}
	return secs, nil
}
