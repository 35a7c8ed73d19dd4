// Package engine is the one entry point to grid execution: a single
// Run(ctx, spec, RunOptions) call that picks one of the two execution
// backends — the in-process worker pool, or the process-backed
// scheduler (internal/sched) over a pool of hosts, one local host by
// default — from an options field rather than from which API is
// called, and hands the grid to it. It is the one coordinator every CLI
// figure command, the dispatch, resume and sched commands, and the
// serve daemon share. Each run makes one plan against one store
// handle, so its report carries one set of cache counters.
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
//     host is ever touched. On sched, its own cache-aware plan finds
//     the grid warm and serves it in memory, writing no manifest
//     (Report.ServedFromCache).
package engine

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"fairbench/internal/dispatch"
	"fairbench/internal/experiments"
	"fairbench/internal/sched"
	"fairbench/internal/store"
)

// Backend selects how a grid's cells are executed.
type Backend string

const (
	// BackendAuto resolves from the options: hosts or a directory given
	// → sched, otherwise in-process.
	BackendAuto Backend = ""
	// BackendInproc runs the grid on this process's worker pool.
	BackendInproc Backend = "inproc"
	// BackendSched runs the grid as worker processes scheduled across a
	// pool of hosts — one local host unless Sched.Hosts says otherwise —
	// through a resumable run directory (cache-aware planning, failure
	// handling).
	BackendSched Backend = "sched"
	// BackendDispatch is the old name of the subprocess backend, which
	// is now sched over its default one-local-host pool.
	//
	// Deprecated: use BackendSched.
	BackendDispatch = BackendSched
)

// RunOptions configures one engine run: the settings both backends
// share, plus the scheduler's own in Sched. Fields a backend does not
// use are ignored by it (documented per field). The zero value runs
// in-process with no cache.
type RunOptions struct {
	// Backend picks the execution backend; BackendAuto resolves from
	// Sched.Hosts/Dir as documented on the constants.
	Backend Backend
	// Dir is the run directory holding the manifest and part files.
	// Required for sched; unused in-process.
	Dir string
	// Parallelism sizes the worker pool a single process uses for grid
	// cells: the in-process backend's pool directly, and on sched the
	// slots of the default local host (used when Sched names no Hosts).
	// Zero means one worker per CPU.
	Parallelism int
	// CacheDir, when set, is the fingerprint-keyed result store: cells
	// already computed are served from disk on every backend, and sched
	// serves a grid its plan finds fully cached in memory
	// (Report.ServedFromCache).
	CacheDir string
	// RemoteStore, when set, is a shared HTTP cache URL (a `fairbench
	// cachesrv` or a serve daemon's /cache mount) layered behind
	// CacheDir via store.OpenBackend: cells computed by other machines
	// or past CI runs are served instead of recomputed, and cells this
	// run computes are written through for the rest of the fleet.
	// Sched records it in the manifest so workers and resumes inherit
	// it. A remote outage degrades the run to local-only
	// (Report.CacheDegraded) instead of failing it.
	RemoteStore string
	// Sched holds the scheduler's settings (pool, shard target, retry
	// and failure budgets, speculation, backoff, local fallback, pool
	// source, transports, event observer); the in-process backend
	// ignores it. The engine fills its Dir, CacheDir, RemoteStore and
	// Log from the fields above, so a Sched that sets any of them fails
	// the run. Nil takes sched's defaults on one local host of
	// Parallelism slots. Hosts given here select the sched backend.
	Sched *sched.Options
	// Spawn overrides how sched's local transport launches worker
	// subprocesses. Nil re-execs this binary's `worker` subcommand. A
	// run whose Sched.Transports also has a "local" entry fails: both
	// would set how local workers start.
	Spawn dispatch.SpawnFunc
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
	// ServedFromCache reports that sched's plan found every cell cached
	// and the calling process materialized the whole grid from the
	// result store: no manifest or part was written, no worker
	// subprocess was spawned and no host was touched. In-process runs
	// leave it false; their served cells count in CellsCached.
	ServedFromCache bool
	// Degraded marks a sched run that completed only through the
	// coordinator's local fallback after the whole pool was lost.
	Degraded bool
	// CacheStats is the coordinating process's result-store counters for
	// this run. Rejected > 0 means cache bytes (on disk or from the
	// remote) failed verification and were recomputed instead of served
	// — correct, but worth an operator's attention. Sched's worker
	// subprocesses keep their own counters; on that backend this
	// reflects only the coordinator's probes, serves and fallback.
	CacheStats store.Counters
	// CacheDegraded marks that the tiered store's remote side was
	// declared down mid-run: the run completed on local cache and
	// compute alone, byte-identical, without the fleet-wide cache.
	CacheDegraded bool
	// Sched carries the scheduler's native report when it ran.
	Sched *sched.Report
}

// Engine executes grids behind one API. The zero value is usable; New
// attaches defaults that every Run/ResumeRun call inherits for fields
// it leaves zero.
type Engine struct {
	defaults RunOptions
}

// New returns an Engine whose per-call options default to defaults:
// any zero field of a Run/ResumeRun call's options is filled from
// here, and a nil Sched takes the defaults' Sched whole. This is how a
// daemon pins its state dir, pool, cache, and spawn function once while
// requests carry only per-run knobs.
func New(defaults RunOptions) *Engine { return &Engine{defaults: defaults} }

// merged overlays per-call options on the engine defaults. A call's
// non-nil Sched replaces the defaults' Sched as a whole.
func (e *Engine) merged(opts RunOptions) RunOptions {
	d := e.defaults
	if opts.Backend == BackendAuto {
		opts.Backend = d.Backend
	}
	if opts.Dir == "" {
		opts.Dir = d.Dir
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = d.Parallelism
	}
	if opts.CacheDir == "" {
		opts.CacheDir = d.CacheDir
	}
	if opts.RemoteStore == "" {
		opts.RemoteStore = d.RemoteStore
	}
	if opts.Sched == nil {
		opts.Sched = d.Sched
	}
	if opts.Spawn == nil {
		opts.Spawn = d.Spawn
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
	case opts.Sched != nil && len(opts.Sched.Hosts) > 0, opts.Dir != "":
		return BackendSched
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
	case BackendSched:
		if opts.Dir == "" {
			return nil, nil, fmt.Errorf("engine: backend %q requires Dir", backend)
		}
		so, err := schedOptions(opts)
		if err != nil {
			return nil, nil, err
		}
		out, srep, err := sched.RunContext(ctx, spec, so)
		return out, fromSched(srep), err
	default:
		return nil, nil, fmt.Errorf("engine: unknown backend %q", backend)
	}
}

// ResumeRun continues the directory-backed run recorded in dir on the
// sched backend: spec, plan and cache come from the manifest, the pool
// from opts. Manifests without a recorded range plan resume on the
// uniform split their workers used.
func (e *Engine) ResumeRun(ctx context.Context, dir string, opts RunOptions) (*experiments.Output, *Report, error) {
	opts = e.merged(opts)
	opts.Dir = dir
	so, err := schedOptions(opts)
	if err != nil {
		return nil, nil, err
	}
	out, srep, err := sched.ResumeContext(ctx, dir, so)
	return out, fromSched(srep), err
}

// runInproc executes the whole grid on this process's runner pool — the
// path serial CLI commands and library callers take. Cells the store
// verifies are served instead of computed; each served cell is marked
// Cached.
func runInproc(ctx context.Context, spec experiments.Spec, opts RunOptions) (*experiments.Output, *Report, error) {
	s, err := store.OpenBackend(opts.CacheDir, opts.RemoteStore)
	if err != nil {
		return nil, nil, err
	}
	g, err := experiments.Open(spec)
	if err != nil {
		return nil, nil, err
	}
	fp, err := g.Fingerprint()
	if err != nil {
		return nil, nil, err
	}
	g.SetCache(s)
	g.SetWorkers(opts.Parallelism)
	cells, err := g.RunRangeContext(ctx, 0, g.Len())
	if err != nil {
		return nil, nil, err
	}
	out, err := g.Assemble(cells)
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{Backend: BackendInproc, Arch: runtime.GOARCH, Fingerprint: fp}
	for _, c := range cells {
		if c.Cached {
			rep.CellsCached++
		}
	}
	rep.CellsComputed = len(cells) - rep.CellsCached
	if s != nil {
		rep.CacheStats = s.Counters()
		if td, ok := s.(*store.TieredStore); ok && td.Degraded() {
			rep.CacheDegraded = true
		}
	}
	return out, rep, nil
}

// schedOptions copies opts.Sched and fills what the engine owns: the
// directory, store, log, the default local host and the spawn override.
func schedOptions(opts RunOptions) (sched.Options, error) {
	var so sched.Options
	if opts.Sched != nil {
		so = *opts.Sched
	}
	if so.Dir != "" || so.CacheDir != "" || so.RemoteStore != "" || so.Log != nil {
		return so, fmt.Errorf("engine: RunOptions.Sched sets Dir, CacheDir, RemoteStore or Log; set them on RunOptions")
	}
	if opts.Spawn != nil && so.Transports["local"] != nil {
		return so, fmt.Errorf(`engine: RunOptions.Spawn and RunOptions.Sched.Transports["local"] both set how local workers start; set one`)
	}
	so.Dir, so.CacheDir, so.RemoteStore, so.Log = opts.Dir, opts.CacheDir, opts.RemoteStore, opts.Log
	if len(so.Hosts) == 0 && opts.Parallelism > 0 {
		// No explicit pool: Parallelism sizes the default local host, so
		// the cross-backend pool knob reaches sched too.
		so.Hosts = []sched.Host{{Name: "local", Slots: opts.Parallelism}}
	}
	if opts.Spawn != nil {
		// Route the spawn override through the local transport, the one
		// that spawns worker subprocesses on this machine.
		transports := map[string]sched.Transport{"local": &sched.LocalExec{Spawn: opts.Spawn}}
		for name, t := range so.Transports {
			transports[name] = t
		}
		so.Transports = transports
	}
	return so, nil
}

func fromSched(rep *sched.Report) *Report {
	if rep == nil {
		return nil
	}
	return &Report{
		Backend:         BackendSched,
		Arch:            runtime.GOARCH,
		Fingerprint:     rep.Fingerprint,
		CellsComputed:   rep.CellsComputed,
		CellsCached:     rep.CellsCached,
		ServedFromCache: rep.ServedFromCache,
		Degraded:        rep.Degraded,
		CacheStats:      rep.Cache,
		CacheDegraded:   rep.CacheDegraded,
		Sched:           rep,
	}
}
