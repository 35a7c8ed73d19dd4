// Package engine is the one entry point to grid execution: a single
// Run(ctx, spec, RunOptions) call that plans, executes, and merges an
// experiment grid on any of the three execution backends — the
// in-process worker pool, the subprocess dispatcher, or the multi-host
// scheduler — selected by an options field rather than by calling three
// different APIs. It is the one coordinator every CLI figure command,
// the dispatch and sched commands, and the serve daemon share.
//
// Unifying guarantees, regardless of backend:
//
//   - the merged output is byte-identical (timing fields aside) to a
//     serial run of the same spec;
//   - a done ctx stops the run promptly (no new cells, workers killed,
//     in-flight host attempts cancelled) and the returned error wraps
//     ctx.Err(); directory-backed runs stay resumable via ResumeRun;
//   - with a result cache, a fully-cached grid is served entirely by
//     the calling process — computed=0 and no worker subprocess or
//     host is ever touched (Report.ServedFromCache).
package engine

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fairbench/internal/dispatch"
	"fairbench/internal/experiments"
	"fairbench/internal/sched"
	"fairbench/internal/shard"
	"fairbench/internal/store"
)

// Backend selects how a grid's cells are executed.
type Backend string

const (
	// BackendAuto resolves from the options: hosts given → sched, a
	// directory given → dispatch, otherwise in-process.
	BackendAuto Backend = ""
	// BackendInproc runs the grid on this process's worker pool.
	BackendInproc Backend = "inproc"
	// BackendDispatch runs the grid as worker subprocesses coordinated
	// through a dispatch directory (resumable).
	BackendDispatch Backend = "dispatch"
	// BackendSched schedules the grid across a pool of hosts (resumable,
	// cache-aware planning, failure handling).
	BackendSched Backend = "sched"
)

// RunOptions configures one engine run: the union of the knobs the
// three backends understand, deduplicated. Fields a backend does not
// use are ignored by it (documented per field). The zero value runs
// in-process with no cache.
type RunOptions struct {
	// Backend picks the execution backend; BackendAuto resolves from
	// Hosts/Dir as documented on the constants.
	Backend Backend
	// Dir is the run directory holding the manifest and part files.
	// Required for dispatch and sched; unused in-process.
	Dir string
	// Shards is the k of the k-way split (dispatch) or the targeted
	// work-range count of the cache-aware plan (sched). Defaults to
	// Procs (dispatch) or the pool's slot count (sched).
	Shards int
	// Procs caps concurrent worker subprocesses (dispatch) and sizes
	// the default local host's slots (sched with no Hosts).
	Procs int
	// Parallelism sizes the worker pool a single process uses for grid
	// cells: the in-process backend's pool directly, the default for
	// Procs on dispatch, and the default local host's slots on sched.
	// Zero means one worker per CPU.
	Parallelism int
	// Retries is the per-shard re-spawn budget (dispatch) or the number
	// of extra full rounds over the pool (sched).
	Retries int
	// CacheDir, when set, is the fingerprint-keyed result store: cells
	// already computed are served from disk on every backend, and a
	// fully-cached grid short-circuits to ServedFromCache.
	CacheDir string
	// RemoteStore, when set, is a shared HTTP cache URL (a `fairbench
	// cachesrv` or a serve daemon's /cache mount) layered behind
	// CacheDir via store.OpenBackend: cells computed by other machines
	// or past CI runs are served instead of recomputed, and cells this
	// run computes are written through for the rest of the fleet.
	// Dispatch and sched record it in the manifest so workers and
	// resumes inherit it. A remote outage degrades the run to
	// local-only (Report.CacheDegraded) instead of failing it.
	RemoteStore string
	// Hosts is the sched execution pool. Setting it (with BackendAuto)
	// selects the sched backend.
	Hosts []sched.Host
	// HeartbeatTimeout and MaxHostFailures tune sched failure handling.
	HeartbeatTimeout time.Duration
	MaxHostFailures  int
	// Speculate enables sched's speculative execution: straggling
	// ranges are re-launched on an idle host, first valid part wins.
	Speculate bool
	// Backoff is sched's retry backoff base delay (exponential with
	// deterministic jitter); zero keeps sched's default, negative
	// disables backoff.
	Backoff time.Duration
	// LocalFallback lets a sched run whose whole pool is lost complete
	// in-process on the coordinator, marked Report.Degraded.
	LocalFallback bool
	// PoolSource feeds sched dynamic pool membership (joins/leaves
	// mid-run); see sched.PoolChan and sched.WatchHosts.
	PoolSource sched.PoolSource
	// Transports overlays sched's built-in transport registry.
	Transports map[string]sched.Transport
	// Spawn overrides how worker subprocesses are launched (dispatch
	// workers and sched's local transport). Nil re-execs this binary's
	// `worker` subcommand.
	Spawn dispatch.SpawnFunc
	// OnEvent observes sched scheduling events (heartbeats,
	// completions, failures, exclusions); see sched.Options.OnEvent.
	OnEvent func(sched.Event)
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Report describes what a run did, normalized across backends; the
// backend's native report rides along for callers that need the
// details.
type Report struct {
	// Backend is the backend that actually executed the run.
	Backend Backend
	// Fingerprint identifies the grid (cache/merge identity).
	Fingerprint string
	// Arch is the coordinating process's GOARCH — the architecture the
	// result store keys cells on (see store.Key). Cells cached on one
	// architecture are invisible on another, so a mixed-arch fleet
	// recomputes instead of sharing; surfacing the arch in reports and
	// the serve status makes that visible rather than silent.
	Arch string
	// CellsComputed and CellsCached split the grid's cells by who did
	// the work.
	CellsComputed, CellsCached int
	// ServedFromCache reports that the whole grid was materialized from
	// the result store by the calling process: no worker subprocess was
	// spawned and no host was touched.
	ServedFromCache bool
	// Degraded marks a sched run that completed only through the
	// coordinator's local fallback after the whole pool was lost.
	Degraded bool
	// CacheStats is the coordinating process's result-store counters for
	// this run. Rejected > 0 means cache bytes (on disk or from the
	// remote) failed verification and were recomputed instead of served
	// — correct, but worth an operator's attention. Dispatch workers
	// keep their own counters; for that backend this reflects only the
	// coordinator's plan-time probes.
	CacheStats store.Counters
	// CacheDegraded marks that the tiered store's remote side was
	// declared down mid-run: the run completed on local cache and
	// compute alone, byte-identical, without the fleet-wide cache.
	CacheDegraded bool
	// Dispatch and Sched carry the backend-native report when that
	// backend ran.
	Dispatch *dispatch.Report
	Sched    *sched.Report
}

// Engine executes grids behind one API. The zero value is usable; New
// attaches defaults that every Run/ResumeRun call inherits for fields
// it leaves zero.
type Engine struct {
	defaults RunOptions
}

// New returns an Engine whose per-call options default to defaults:
// any zero field of a Run/ResumeRun call's options is filled from
// here. This is how a daemon pins its state dir, pool, cache, and
// spawn function once while requests carry only per-run knobs.
func New(defaults RunOptions) *Engine { return &Engine{defaults: defaults} }

// merged overlays per-call options on the engine defaults.
func (e *Engine) merged(opts RunOptions) RunOptions {
	d := e.defaults
	if opts.Backend == BackendAuto {
		opts.Backend = d.Backend
	}
	if opts.Dir == "" {
		opts.Dir = d.Dir
	}
	if opts.Shards == 0 {
		opts.Shards = d.Shards
	}
	if opts.Procs == 0 {
		opts.Procs = d.Procs
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = d.Parallelism
	}
	if opts.Retries == 0 {
		opts.Retries = d.Retries
	}
	if opts.CacheDir == "" {
		opts.CacheDir = d.CacheDir
	}
	if opts.RemoteStore == "" {
		opts.RemoteStore = d.RemoteStore
	}
	if opts.Hosts == nil {
		opts.Hosts = d.Hosts
	}
	if opts.HeartbeatTimeout == 0 {
		opts.HeartbeatTimeout = d.HeartbeatTimeout
	}
	if opts.MaxHostFailures == 0 {
		opts.MaxHostFailures = d.MaxHostFailures
	}
	if !opts.Speculate {
		opts.Speculate = d.Speculate
	}
	if opts.Backoff == 0 {
		opts.Backoff = d.Backoff
	}
	if !opts.LocalFallback {
		opts.LocalFallback = d.LocalFallback
	}
	if opts.PoolSource == nil {
		opts.PoolSource = d.PoolSource
	}
	if opts.Transports == nil {
		opts.Transports = d.Transports
	}
	if opts.Spawn == nil {
		opts.Spawn = d.Spawn
	}
	if opts.OnEvent == nil {
		opts.OnEvent = d.OnEvent
	}
	if opts.Log == nil {
		opts.Log = d.Log
	}
	return opts
}

// resolve picks the backend BackendAuto stands for.
func resolve(opts RunOptions) Backend {
	switch {
	case opts.Backend != BackendAuto:
		return opts.Backend
	case len(opts.Hosts) > 0:
		return BackendSched
	case opts.Dir != "":
		return BackendDispatch
	default:
		return BackendInproc
	}
}

// Run executes the spec's grid on the resolved backend and merges the
// result. See the package comment for the cross-backend guarantees.
func (e *Engine) Run(ctx context.Context, spec experiments.Spec, opts RunOptions) (*experiments.Output, *Report, error) {
	opts = e.merged(opts)
	backend := resolve(opts)
	switch backend {
	case BackendInproc:
		return runInproc(ctx, spec, opts)
	case BackendDispatch, BackendSched:
		if opts.Dir == "" {
			return nil, nil, fmt.Errorf("engine: backend %q requires Dir", backend)
		}
		if out, rep, ok, err := serveFromCache(ctx, spec, opts, backend); ok || err != nil {
			return out, rep, err
		}
		if backend == BackendDispatch {
			out, drep, err := dispatch.RunContext(ctx, spec, dispatchOptions(opts))
			return out, fromDispatch(drep), err
		}
		out, srep, err := sched.RunContext(ctx, spec, schedOptions(opts))
		return out, fromSched(srep), err
	default:
		return nil, nil, fmt.Errorf("engine: unknown backend %q", backend)
	}
}

// ResumeRun continues the directory-backed run recorded in dir
// (dispatch or sched — they share the manifest protocol). The sched
// backend is used when the resolved backend is sched; everything else
// resumes through the dispatcher, which handles both directory layouts.
func (e *Engine) ResumeRun(ctx context.Context, dir string, opts RunOptions) (*experiments.Output, *Report, error) {
	opts = e.merged(opts)
	opts.Dir = dir
	if resolve(opts) == BackendSched {
		out, srep, err := sched.ResumeContext(ctx, dir, schedOptions(opts))
		return out, fromSched(srep), err
	}
	out, drep, err := dispatch.ResumeContext(ctx, dir, dispatchOptions(opts))
	return out, fromDispatch(drep), err
}

// runInproc executes the whole grid as one in-process "shard" on the
// runner pool — the path serial CLI commands and library callers take.
func runInproc(ctx context.Context, spec experiments.Spec, opts RunOptions) (*experiments.Output, *Report, error) {
	s, err := store.OpenBackend(opts.CacheDir, opts.RemoteStore)
	if err != nil {
		return nil, nil, err
	}
	env, err := experiments.RunShardContext(ctx, spec, 0, 1, s, opts.Parallelism)
	if err != nil {
		return nil, nil, err
	}
	out, err := experiments.MergeShards([]*shard.Envelope{env})
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{
		Backend:       BackendInproc,
		Arch:          runtime.GOARCH,
		Fingerprint:   env.Fingerprint,
		CellsComputed: len(env.Indices) - len(env.Cached),
		CellsCached:   len(env.Cached),
	}
	attachCache(rep, s)
	return out, rep, nil
}

// attachCache copies a store handle's counters (and, for tiered stores,
// the remote-outage latch) onto the report — the one place every
// backend's cache observability goes through.
func attachCache(rep *Report, s store.Backend) {
	if rep == nil || s == nil {
		return
	}
	rep.CacheStats = s.Counters()
	if td, ok := s.(*store.TieredStore); ok && td.Degraded() {
		rep.CacheDegraded = true
	}
}

// serveFromCache is the warm-grid short-circuit for the process-backed
// backends: when a fresh run's grid is fully served by the result
// store, the coordinator materializes it directly — computed=0, no
// subprocess spawned, no host touched. Runs that already have a
// manifest (interrupted, being resumed by Run) fall through so the
// directory protocol stays in charge.
func serveFromCache(ctx context.Context, spec experiments.Spec, opts RunOptions, backend Backend) (*experiments.Output, *Report, bool, error) {
	if opts.CacheDir == "" && opts.RemoteStore == "" {
		return nil, nil, false, nil
	}
	if _, err := os.Stat(filepath.Join(opts.Dir, "manifest.json")); err == nil {
		return nil, nil, false, nil
	}
	s, err := store.OpenBackend(opts.CacheDir, opts.RemoteStore)
	if err != nil {
		return nil, nil, false, err
	}
	plan, err := experiments.PlanShardsCacheAware(spec, 1, s)
	if err != nil {
		return nil, nil, false, err
	}
	if plan.TotalUncached() > 0 {
		return nil, nil, false, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, false, fmt.Errorf("engine: cancelled before serving cached grid: %w", err)
	}
	envs := make([]*shard.Envelope, len(plan.Ranges))
	for i := range plan.Ranges {
		// Single-pass plan+serve: planning already read and verified every
		// cached payload, so materialize the envelopes from those bytes.
		// The fallback covers entries that went bad between probe and
		// serve — RunShardPlanned then recomputes them like any cache miss.
		if env, ok := plan.ServeEnvelope(i); ok {
			envs[i] = env
			continue
		}
		if envs[i], err = experiments.RunShardPlanned(spec, plan.Ranges, i, s); err != nil {
			return nil, nil, false, err
		}
	}
	out, err := experiments.MergeShards(envs)
	if err != nil {
		return nil, nil, false, err
	}
	cached := 0
	for _, env := range envs {
		cached += len(env.Cached)
	}
	fp := ""
	if len(envs) > 0 {
		fp = envs[0].Fingerprint
	}
	if opts.Log != nil {
		src := opts.CacheDir
		if src == "" {
			src = opts.RemoteStore
		}
		fmt.Fprintf(opts.Log, "engine: grid fully cached — served %d cell(s) from %s without touching a worker or host\n", cached, src)
	}
	rep := &Report{
		Backend:         backend,
		Arch:            runtime.GOARCH,
		Fingerprint:     fp,
		CellsCached:     cached,
		ServedFromCache: true,
	}
	attachCache(rep, s)
	return out, rep, true, nil
}

func dispatchOptions(opts RunOptions) dispatch.Options {
	procs := opts.Procs
	if procs == 0 {
		// Parallelism is the cross-backend pool knob: on dispatch it
		// bounds concurrent worker subprocesses unless Procs pins them.
		procs = opts.Parallelism
	}
	return dispatch.Options{
		Dir:         opts.Dir,
		Shards:      opts.Shards,
		Procs:       procs,
		Retries:     opts.Retries,
		CacheDir:    opts.CacheDir,
		RemoteStore: opts.RemoteStore,
		Spawn:       opts.Spawn,
		Log:         opts.Log,
	}
}

func schedOptions(opts RunOptions) sched.Options {
	hosts := opts.Hosts
	if len(hosts) == 0 && opts.Parallelism > 0 {
		// No explicit pool: Parallelism sizes the default local host, so
		// the cross-backend pool knob reaches sched too.
		hosts = []sched.Host{{Name: "local", Slots: opts.Parallelism}}
	}
	transports := opts.Transports
	if opts.Spawn != nil && (transports == nil || transports["local"] == nil) {
		// Route the spawn override through the local transport so one
		// RunOptions field covers both process-backed backends.
		merged := map[string]sched.Transport{"local": &sched.LocalExec{Spawn: opts.Spawn}}
		for name, t := range transports {
			merged[name] = t
		}
		transports = merged
	}
	return sched.Options{
		Dir:              opts.Dir,
		Hosts:            hosts,
		Shards:           opts.Shards,
		CacheDir:         opts.CacheDir,
		RemoteStore:      opts.RemoteStore,
		HeartbeatTimeout: opts.HeartbeatTimeout,
		Retries:          opts.Retries,
		MaxHostFailures:  opts.MaxHostFailures,
		Speculate:        opts.Speculate,
		Backoff:          opts.Backoff,
		LocalFallback:    opts.LocalFallback,
		PoolSource:       opts.PoolSource,
		Transports:       transports,
		OnEvent:          opts.OnEvent,
		Log:              opts.Log,
	}
}

func fromDispatch(rep *dispatch.Report) *Report {
	if rep == nil {
		return nil
	}
	return &Report{
		Backend:       BackendDispatch,
		Arch:          runtime.GOARCH,
		Fingerprint:   rep.Fingerprint,
		CellsComputed: rep.CellsComputed,
		CellsCached:   rep.CellsCached,
		Dispatch:      rep,
	}
}

func fromSched(rep *sched.Report) *Report {
	if rep == nil {
		return nil
	}
	return &Report{
		Backend:       BackendSched,
		Arch:          runtime.GOARCH,
		Fingerprint:   rep.Fingerprint,
		CellsComputed: rep.CellsComputed,
		CellsCached:   rep.CellsCached,
		Degraded:      rep.Degraded,
		CacheStats:    rep.Cache,
		CacheDegraded: rep.CacheDegraded,
		Sched:         rep,
	}
}
