// Package fairbench is a from-scratch Go reproduction of "Through the Data
// Management Lens: Experimental Analysis and Evaluation of Fair
// Classification" (Islam, Fariha, Meliou, Salimi — SIGMOD 2022).
//
// It provides, behind one public API:
//
//   - the three benchmark datasets (Adult, COMPAS, German) as calibrated
//     structural-causal-model generators with their literature causal
//     graphs;
//   - the 18 evaluated fair-classification variants across the three
//     pipeline stages (pre-, in-, and post-processing), plus the
//     fairness-unaware logistic-regression baseline;
//   - the paper's correctness metrics (accuracy, precision, recall, F1)
//     and fairness metrics (DI*, TPRB, TNRB, ID, TE, NDE, NIE);
//   - the five classifier families of the model-sensitivity study;
//   - the full experiment harness regenerating every figure and table of
//     the paper's evaluation section.
//
// Quick start: a GridSpec names one figure's grid completely, and Run
// computes it.
//
//	spec := fairbench.GridSpec{Experiment: "fig7", Dataset: "compas", Seed: 42}
//	out, rep, err := fairbench.Run(ctx, spec, fairbench.RunOptions{})
//	// out.Rows holds the Figure 7 rows for COMPAS
//
// A caller with its own data builds an approach with NewApproach, splits
// with Split, and scores one fit with Evaluate.
//
// # Parallel execution
//
// Run fans each grid's (approach × dataset-slice) cells across a worker
// pool sized to GOMAXPROCS by default. Results are deterministic: for a
// fixed seed, a parallel run returns exactly the rows a serial run would,
// because each grid cell constructs its own approach and random stream
// from explicit seeds and cells share no mutable state. Only the timing
// fields (Seconds, Overhead) vary — under a parallel pool they are
// measured with the other cells competing for cores. The pure timing
// grids (fig8rows and fig8attrs, Figure 8) therefore always measure with
// one worker. Size the pool per run with RunOptions.Parallelism (zero
// means one worker per CPU, 1 forces serial execution):
//
//	out, rep, err := fairbench.Run(ctx, spec, fairbench.RunOptions{Parallelism: 8})
//
// The fairbench CLI exposes the same knob as -parallel N.
//
// Cells read their dataset slice through shared read-only views and
// otherwise compute alone, so each row's timing is that approach's own
// cost. The one exception is the model sweep (Figure 10), whose cells fit
// on one training split and differ only in their model: they share each
// pre-processing repair and each post-processing base fit. Sharing only
// ever covers artifacts each cell would compute bit-identically on its
// own, so it moves work, never results, and the sweep renders no timing.
//
// # Sharded execution
//
// Beyond the in-process pool, any experiment grid can fan across
// processes or hosts. A GridSpec names the experiment, dataset, size cap,
// and seed; because the benchmark datasets are synthesized from seeds,
// the spec fully determines every grid cell, so independent processes can
// each run one contiguous shard and the merged result is bit-identical
// (timing fields aside) to a single-process run:
//
//	spec := fairbench.GridSpec{Experiment: "fig7", Dataset: "compas", Seed: 42}
//	e0, _ := fairbench.RunShard(spec, 0, 3)   // any process / host
//	e1, _ := fairbench.RunShard(spec, 1, 3)
//	e2, _ := fairbench.RunShard(spec, 2, 3)
//	out, _ := fairbench.MergeShards([]*fairbench.ShardEnvelope{e0, e1, e2})
//
// Envelopes are plain JSON (rows + job indices + seed + a grid
// fingerprint); MergeShards rejects envelopes whose fingerprints
// disagree. The CLI exposes the same flow as
// `fairbench fig7 -dataset compas -shard 0/3 -out part0.json` followed by
// `fairbench merge part0.json part1.json part2.json`.
//
// # Result caching and resumable runs
//
// RunOptions.CacheDir names an on-disk result cache keyed by (grid
// fingerprint, cell index, seed, GOARCH); RunOptions.RemoteStore layers a
// shared HTTP cache behind it. A Run given a cache serves verified cache
// hits instead of recomputing cells on every backend — its own pool,
// local worker subprocesses, and scheduled hosts — so re-running a grid
// computes only the cache-miss cells while staying byte-identical to a
// cold run:
//
//	opts := fairbench.RunOptions{CacheDir: ".fairbench-cache"}
//	out, rep, _ := fairbench.Run(ctx, spec, opts) // cold: computes + caches
//	out, rep, _ = fairbench.Run(ctx, spec, opts)  // warm: rep.CellsComputed == 0
//
// RunReport.CacheStats carries the run's hit/miss/write counters;
// CacheDiskUsage and CacheGC inspect and reclaim a cache directory.
// RunShard and Evaluate never consult a cache.
//
// Giving Run a directory runs the grid on the scheduler (BackendSched)
// as worker subprocesses of one local host with Parallelism slots (one
// per CPU when zero), recording a manifest and one part file per range
// there. An interrupted (crashed, killed, cancelled) run is resumed with
// ResumeRun, which reuses every completed part and cached cell:
//
//	spec := fairbench.GridSpec{Experiment: "fig7", Dataset: "compas", Seed: 42}
//	out, rep, err := fairbench.Run(ctx, spec, fairbench.RunOptions{
//		Dir: "run", Parallelism: 4, CacheDir: "cache",
//		Sched: &fairbench.SchedOptions{Shards: 8},
//	})
//	// ... a worker is SIGKILLed, err names the missing ranges ...
//	out, rep, err = fairbench.ResumeRun(ctx, "run", fairbench.RunOptions{Parallelism: 4})
//
// The CLI exposes the same flow as `fairbench dispatch -exp fig7 ...`
// and `fairbench resume -dir run`.
//
// # Multi-host scheduling
//
// Setting RunOptions.Sched's Hosts replaces the one local host with a
// pool of hosts, each with its own concurrency slots, over the same
// manifest/part-file protocol. Work reaches a host through a pluggable
// transport — local subprocesses by default, or a worker binary run
// over any command runner (ssh-shaped) with the manifest streamed in and
// the envelope streamed back. Planning is cache-aware: ranges the result
// cache can fully serve never reach a host, and the rest are balanced by
// uncached cell count. Failed attempts are retried on other hosts, hosts
// that go silent past the heartbeat deadline are declared dead, and
// repeatedly failing hosts are excluded with their ranges reassigned to
// survivors — under every failure mode the merged output stays
// byte-identical (timing aside) to a serial run, or the run fails
// resumably:
//
//	hosts, _ := fairbench.LoadHosts("hosts.json")
//	spec := fairbench.GridSpec{Experiment: "fig7", Dataset: "compas", Seed: 42}
//	out, rep, err := fairbench.Run(ctx, spec, fairbench.RunOptions{
//		Dir: "run", CacheDir: "cache",
//		Sched: &fairbench.SchedOptions{Hosts: hosts},
//	})
//
// The CLI exposes the same flow as `fairbench sched -exp fig7 -hosts
// hosts.json -dir run -cache cache`.
//
// # Unified execution engine
//
// Run(ctx, spec, RunOptions) is the single entry point subsuming all
// of the above: the execution backend (in-process pool, or the
// scheduler over one local host or a pool of hosts) is a RunOptions
// field, ctx cancels the run promptly with directories left resumable
// by ResumeRun, and a fully-cached grid is served without touching a
// worker or host. Run and ResumeRun are the only whole-grid entry
// points that cache or schedule; SchedReport remains as the type behind
// RunReport.Sched. The `fairbench serve` command
// exposes the same engine as a persistent HTTP service (see the
// README's "Serving" section).
//
// See the examples/ directory for runnable programs.
package fairbench

import (
	"context"

	"fairbench/internal/causal"
	"fairbench/internal/classifier"
	"fairbench/internal/corrupt"
	"fairbench/internal/dataset"
	"fairbench/internal/engine"
	"fairbench/internal/experiments"
	"fairbench/internal/fair"
	"fairbench/internal/metrics"
	"fairbench/internal/registry"
	"fairbench/internal/rng"
	"fairbench/internal/sched"
	"fairbench/internal/shard"
	"fairbench/internal/store"
	"fairbench/internal/synth"
)

// Re-exported core types. The facade keeps downstream users off the
// internal packages while exposing the full object model.
type (
	// Dataset is an annotated dataset with schema (X, S; Y).
	Dataset = dataset.Dataset
	// Attr describes one attribute of X.
	Attr = dataset.Attr
	// Source bundles a dataset with its causal graph.
	Source = synth.Source
	// Graph is a causal DAG over the dataset's attributes.
	Graph = causal.Graph
	// Approach is a complete fair-classification pipeline.
	Approach = fair.Approach
	// Stage is the fairness-enforcing pipeline stage.
	Stage = fair.Stage
	// Classifier is a binary probabilistic classifier. Its Fit takes a
	// design matrix as Dataset.FeatureMatrix or Dataset.StandardizedDesign
	// builds one.
	Classifier = classifier.Classifier
	// Correctness holds the Figure 2 metrics.
	Correctness = metrics.Correctness
	// Fairness holds the raw Figure 4 metrics.
	Fairness = metrics.Fairness
	// NormalizedFairness holds the paper's [0,1] presentation scale.
	NormalizedFairness = metrics.Normalized
	// Row is the per-approach result of one evaluation.
	Row = experiments.Row
	// ErrorTemplate selects a Section 4.4 corruption template.
	ErrorTemplate = corrupt.Template
	// GridSpec is the serializable identity of one experiment job grid —
	// the unit of sharded execution.
	GridSpec = experiments.Spec
	// GridOutput is a fully assembled grid result (one payload field per
	// experiment kind).
	GridOutput = experiments.Output
	// ShardRange is one contiguous slice of a grid's job index space.
	ShardRange = shard.Range
	// ShardEnvelope is the JSON-serializable partial result of one shard.
	ShardEnvelope = shard.Envelope
	// CacheCounters are a result cache's in-memory hit/miss/write/reject
	// counters (plus transport-error counts for remote-backed caches), as
	// RunReport.CacheStats carries them for one run.
	CacheCounters = store.Counters
	// CacheBackend is a verified result cache: on-disk, remote HTTP, or
	// tiered (disk in front of a shared remote). See store.Backend.
	CacheBackend = store.Backend
	// CacheUsage summarizes the cache directory: entries, bytes, and
	// distinct grid fingerprints, plus the counters.
	CacheUsage = store.Stats
	// SchedHost describes one member of a multi-host execution pool.
	SchedHost = sched.Host
	// SchedTransport places one assigned range on a host (see
	// sched.LocalExec and sched.RemoteExec for the built-ins).
	SchedTransport = sched.Transport
	// SchedOptions holds a scheduled run's own settings (pool, shard
	// target, heartbeat deadline, retry and failure budgets,
	// speculation, backoff, local fallback, pool source, transports,
	// event observer), set as RunOptions.Sched. Its Dir, CacheDir,
	// RemoteStore and Log come from RunOptions; Run fails a SchedOptions
	// that sets them.
	SchedOptions = sched.Options
	// SchedReport records what a scheduled run did: the cache-aware
	// plan, ranges served from cache vs placed on hosts, per-host
	// deliveries, excluded hosts, and the computed/cached cell split.
	SchedReport = sched.Report
	// ShardPlan is a cache-aware split of one grid: contiguous ranges
	// annotated with their uncached cell counts.
	ShardPlan = experiments.ShardPlan
	// RunOptions configures a Run/ResumeRun call: one struct unifying
	// the knobs the two execution backends understand (see Backend).
	RunOptions = engine.RunOptions
	// RunReport describes what a Run did, normalized across backends;
	// the scheduler's native report rides along in its Sched field.
	RunReport = engine.Report
	// Backend selects how Run executes the grid: in-process pool, or
	// the scheduler over one local host or a pool of hosts.
	Backend = engine.Backend
	// Engine executes grids behind the unified API with pinned
	// defaults; see NewEngine.
	Engine = engine.Engine
	// SchedEvent is one observed scheduling transition (heartbeat,
	// completion, failure, exclusion); see SchedOptions.OnEvent.
	SchedEvent = sched.Event
	// PoolSource feeds dynamic pool-membership changes (joins and
	// graceful leaves) into a running scheduled execution; see
	// SchedOptions.PoolSource and sched.NewPoolChan / sched.WatchHosts.
	PoolSource = sched.PoolSource
	// PoolUpdate is one membership change a PoolSource delivers.
	PoolUpdate = sched.PoolUpdate
)

// Execution backends for RunOptions.Backend. BackendAuto resolves from
// the options: hosts or a directory given → sched, otherwise
// in-process.
const (
	BackendAuto   = engine.BackendAuto
	BackendInproc = engine.BackendInproc
	BackendSched  = engine.BackendSched
)

// Pipeline stages.
const (
	StagePre  = fair.StagePre
	StageIn   = fair.StageIn
	StagePost = fair.StagePost
)

// Error templates of the robustness experiment.
const (
	T1 = corrupt.T1
	T2 = corrupt.T2
	T3 = corrupt.T3
)

// Adult generates the Adult census benchmark (n <= 0 uses the paper's
// 45,222 tuples). The sensitive attribute is Sex; the task is predicting
// income >= $50K.
func Adult(n int, seed int64) *Source { return synth.Adult(n, seed) }

// COMPAS generates the COMPAS recidivism benchmark (n <= 0 uses 7,214
// tuples). The sensitive attribute is Race; Y=1 is the favorable
// "does not reoffend" outcome.
func COMPAS(n int, seed int64) *Source { return synth.COMPAS(n, seed) }

// German generates the German credit benchmark (n <= 0 uses 1,000
// tuples). The sensitive attribute is Sex; Y=1 is low credit risk.
func German(n int, seed int64) *Source { return synth.German(n, seed) }

// Sources returns all three benchmarks at their paper sizes.
func Sources(seed int64) []*Source {
	return []*Source{Adult(0, seed), COMPAS(0, seed), German(0, seed)}
}

// ApproachNames lists the 18 evaluated variants in presentation order.
func ApproachNames() []string { return append([]string(nil), registry.Names...) }

// NewApproach constructs a variant by name ("LR" gives the baseline). The
// graph is required by the causal approaches and may be nil otherwise.
func NewApproach(name string, g *Graph, seed int64) (Approach, error) {
	return registry.New(name, registry.Config{Graph: g, Seed: seed})
}

// NewApproachWithModel is NewApproach with an explicit downstream model
// family for pre- and post-processing ("LR", "SVM", "kNN", "RF", "MLP").
func NewApproachWithModel(name, model string, g *Graph, seed int64) (Approach, error) {
	return registry.New(name, registry.Config{Graph: g, Model: model, Seed: seed})
}

// Baseline returns the fairness-unaware logistic-regression classifier.
func Baseline() Approach { return fair.NewBaseline() }

// PlanShards reports the contiguous job ranges a k-way split of the
// spec's grid produces. The same plan is computed independently by every
// RunShard call, so no coordination beyond (spec, i, k) is needed.
func PlanShards(spec GridSpec, k int) ([]ShardRange, error) {
	return experiments.PlanShards(spec, k)
}

// RunShard executes shard i of a k-way split of the spec's experiment
// grid and returns its partial-result envelope (JSON-serializable; see
// ShardEnvelope.Encode). Shards share no state: each process
// re-synthesizes the dataset from the spec's seed, so shards may run on
// different hosts and still merge bit-identically — provided all hosts
// (and the merging process) share one CPU architecture, since float
// arithmetic differs across architectures (e.g. FMA contraction on
// arm64). Envelopes record GOARCH and MergeShards enforces the match.
// RunShard computes every cell of its shard; Run with
// RunOptions.CacheDir is the cached path.
func RunShard(spec GridSpec, i, k int) (*ShardEnvelope, error) {
	return experiments.RunShardContext(context.Background(), spec, i, k, nil, 0)
}

// MergeShards validates a complete shard set and reassembles the
// driver-native output, identical (timing fields aside) to a
// single-process run of the same spec. Envelopes with mismatched grid
// fingerprints are rejected.
func MergeShards(envs []*ShardEnvelope) (*GridOutput, error) {
	return experiments.MergeShards(envs)
}

// MergeShardsNamed is MergeShards with a provenance label (typically the
// source file path) per envelope: validation errors name the offending
// file, and an incomplete set fails listing the shard indices still
// missing.
func MergeShardsNamed(envs []*ShardEnvelope, names []string) (*GridOutput, error) {
	return experiments.MergeShardsNamed(envs, names)
}

// DecodeShardEnvelope parses and validates a serialized shard envelope.
func DecodeShardEnvelope(data []byte) (*ShardEnvelope, error) {
	return shard.Decode(data)
}

// CacheDiskUsage walks the on-disk result cache at dir (created if
// missing) and reports entry count, bytes, and distinct grid
// fingerprints.
func CacheDiskUsage(dir string) (CacheUsage, error) {
	s, err := store.Open(dir)
	if err != nil {
		return CacheUsage{}, err
	}
	return s.Stats()
}

// CacheGC drops every grid cached at dir except those the given specs
// materialize, returning how many grids were removed. Pass the specs of
// the figures still being iterated on; everything else is reclaimed.
func CacheGC(dir string, keep ...GridSpec) (removed int, err error) {
	s, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	inUse := map[string]bool{}
	for _, spec := range keep {
		fp, err := GridFingerprint(spec)
		if err != nil {
			return 0, err
		}
		inUse[fp] = true
	}
	return s.GC(func(fp string) bool { return inUse[fp] })
}

// GridFingerprint returns the shard/cache fingerprint the spec's grid
// materializes to: the identity under which its envelopes merge and its
// cells are cached.
func GridFingerprint(spec GridSpec) (string, error) {
	g, err := experiments.Open(spec)
	if err != nil {
		return "", err
	}
	return g.Fingerprint()
}

// defaultEngine backs the package-level Run/ResumeRun entry points.
var defaultEngine = engine.New(engine.RunOptions{})

// NewEngine returns an execution engine whose Run/ResumeRun calls
// default to the given options for fields they leave zero — how a
// long-lived embedder (e.g. the serve daemon) pins its state
// directory, host pool, cache, and spawn function once.
func NewEngine(defaults RunOptions) *Engine { return engine.New(defaults) }

// Run plans, executes, and merges the spec's experiment grid on the
// backend opts selects (in-process pool, or the scheduler over one
// local host or a pool of hosts), returning output byte-identical
// (timing fields aside) to a serial run. A cancelled ctx stops the run
// promptly — no new cells start, worker subprocesses are killed,
// in-flight host attempts are cancelled — with the error wrapping
// ctx.Err() and directory-backed runs left resumable via ResumeRun. With
// opts.CacheDir set, a fully-cached grid is served entirely by the
// calling process: computed=0, and on the scheduler, whose cache-aware
// plan finds the grid warm, no manifest is written and no worker or host
// is touched (RunReport.ServedFromCache).
func Run(ctx context.Context, spec GridSpec, opts RunOptions) (*GridOutput, *RunReport, error) {
	return defaultEngine.Run(ctx, spec, opts)
}

// ResumeRun continues the directory-backed run recorded in dir on the
// scheduler, one local host unless opts.Sched names Hosts. Completed
// envelopes are validated and reused, missing work is executed
// (consulting the run's result cache at cell granularity), and the
// completed set is merged.
func ResumeRun(ctx context.Context, dir string, opts RunOptions) (*GridOutput, *RunReport, error) {
	return defaultEngine.ResumeRun(ctx, dir, opts)
}

// PlanShardsCacheAware plans a split of the spec's grid targeting k work
// ranges with the result cache at cacheDir consulted cell by cell:
// fully-cached stretches become skippable zero-work ranges and the rest
// is balanced by uncached cell count. An empty cacheDir plans every cell
// as work. Over a fully-cached grid the plan's TotalUncached() is 0.
func PlanShardsCacheAware(spec GridSpec, k int, cacheDir string) (*ShardPlan, error) {
	s, err := store.OpenBackend(cacheDir, "")
	if err != nil {
		return nil, err
	}
	return experiments.PlanShardsCacheAware(spec, k, s)
}

// LoadHosts reads a hosts.json pool definition (a JSON array of
// SchedHost objects) for SchedOptions.Hosts.
func LoadHosts(path string) ([]SchedHost, error) { return sched.LoadHosts(path) }

// Split partitions a dataset with the paper's random hold-out protocol.
func Split(d *Dataset, trainFrac float64, seed int64) (train, test *Dataset) {
	return d.Split(trainFrac, rng.New(seed))
}

// Evaluate fits an approach and computes every metric on the test set.
func Evaluate(a Approach, train, test *Dataset, g *Graph) (Row, error) {
	return experiments.Evaluate(a, train, test, g)
}

// MeasureFairness computes the raw fairness metrics of predictions yhat on
// d. The approach p enables the ID metric and may be nil; when it is
// set, yhat must be p.Predict(d)'s labels. The graph enables the causal
// metrics and may be nil.
func MeasureFairness(d *Dataset, yhat []int, p Approach, g *Graph) Fairness {
	var flipper metrics.Flipper
	if p != nil {
		flipper = p
	}
	return metrics.ComputeFairness(d, yhat, flipper, g)
}

// MeasureCorrectness computes the Figure 2 metrics.
func MeasureCorrectness(y, yhat []int) Correctness {
	return metrics.ComputeCorrectness(y, yhat)
}

// Normalize maps raw fairness values onto the paper's [0,1] scale.
func Normalize(f Fairness) NormalizedFairness { return metrics.Normalize(f) }

// Corrupt applies one of the Section 4.4 error templates (COMPAS schema)
// with the paper's 50%/10% disproportionate rates.
func Corrupt(d *Dataset, t ErrorTemplate, seed int64) (*Dataset, error) {
	return corrupt.ApplyCOMPAS(d, t, seed)
}
