// Package sched schedules one experiment grid across a pool of hosts:
// the multi-host layer above internal/dispatch's single-machine
// coordinator. It reuses the dispatch directory protocol wholesale — the
// same manifest.json (now carrying an explicit range plan), the same
// fingerprinted part-NNN.json envelopes, the same acceptance gate
// (dispatch.ValidatePart) — so a sched directory is resumable by either
// scheduler and its merged output is byte-identical (timing aside) to a
// serial run of the same spec.
//
// What sched adds over dispatch:
//
//   - pluggable transports: work reaches a host through the Transport
//     interface — LocalExec re-execs this binary's worker subcommand,
//     RemoteExec streams the manifest to a worker binary over any
//     command runner (ssh-shaped), and tests inject chaos through the
//     same seam;
//   - per-host concurrency slots and a pool definition (hosts.json);
//   - failure handling: heartbeat/deadline detection declares silent
//     hosts dead, failed attempts retry on other hosts with exponential
//     backoff + deterministic jitter, repeatedly failing hosts are
//     excluded and their ranges reassigned to survivors;
//   - speculative execution: a range running far past the median of
//     completed ranges is re-launched on an idle host; the first
//     attempt whose part validates wins, the loser is cancelled without
//     a host strike (Options.Speculate);
//   - dynamic pool membership: hosts join mid-run and leave gracefully
//     through a PoolSource (a re-watched hosts.json, the serve daemon's
//     admin endpoint, or a programmatic PoolChan);
//   - graceful degradation: with Options.LocalFallback, a run whose
//     whole pool is lost completes in-process on the coordinator,
//     marked Degraded, instead of failing;
//   - cache-aware planning: the shard plan consults the result store at
//     plan time, so fully-cached ranges never reach a host (the
//     coordinator materializes them from the store) and the remaining
//     ranges are balanced by uncached cell count, not raw cell count.
//
// Failure semantics, in one table:
//
//	worker exits non-zero      attempt fails; range retries elsewhere after backoff
//	worker killed (SIGKILL)    same — process death fails the attempt at once
//	transport goes silent      heartbeat lapse: attempt cancelled, range reassigned
//	corrupt/forged part        rejected by the shared validation gate; attempt fails
//	range far past median      speculative duplicate on an idle host; first valid
//	                           part accepted exactly once, loser cancelled unstruck
//	host keeps failing         excluded after MaxHostFailures; its ranges move on
//	host leaves (PoolSource)   no new work; in-flight drains; queue replans around it
//	host joins (PoolSource)    eligible at the next scheduling round
//	every host failed a range  exclusions reset, next round (up to Retries rounds)
//	whole pool lost            LocalFallback: coordinator computes the rest
//	                           in-process, run completes Degraded; else fail resumable
//	ranges still missing       error names them; the directory stays resumable
//
// Every path converges to the same merged bytes or fails resumably;
// nothing is ever merged around. Chaos-test these paths through
// FaultTransport, the supported deterministic fault-injection seam.
package sched

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"fairbench/internal/dispatch"
	"fairbench/internal/experiments"
	"fairbench/internal/rng"
	"fairbench/internal/shard"
	"fairbench/internal/store"
)

// Options configures one scheduled run.
type Options struct {
	// Dir is the sched directory (created if missing): a dispatch-layer
	// directory holding manifest.json and part files. Required.
	Dir string
	// Hosts is the execution pool. Empty defaults to one local host
	// with one slot per CPU (runtime.GOMAXPROCS(0)).
	Hosts []Host
	// Shards targets how many work ranges the cache-aware plan produces
	// (the actual count varies with cache fragmentation). Defaults to
	// the pool's total slot count.
	Shards int
	// CacheDir, when set, is the result store consulted at plan time
	// (to skip and balance) and by every worker at cell granularity.
	CacheDir string
	// RemoteStore, when set, is the shared HTTP cache URL layered behind
	// CacheDir (store.OpenBackend): plan-time probes see cells computed
	// by other machines, and every worker writes its cells through to
	// the fleet-wide cache. Recorded in the manifest so workers and
	// resumes inherit it.
	RemoteStore string
	// HeartbeatTimeout is how long an in-flight assignment may go
	// without a transport heartbeat before its host is declared dead
	// and the range reassigned. Default 60s.
	HeartbeatTimeout time.Duration
	// Retries is how many times a range's per-host exclusions are reset
	// after every live host has failed it — full extra rounds over the
	// pool, not per-host attempts. Default 1; negative means no extra
	// rounds (a range every live host has failed once fails for good).
	Retries int
	// MaxHostFailures is the per-host failure budget: how many failed
	// attempts a host may accumulate before it is excluded from the
	// pool for the rest of the run. Default 3.
	MaxHostFailures int
	// Speculate enables speculative execution: a range whose attempt
	// has run longer than SpeculateFactor× the median completed-range
	// runtime (never less than SpeculateFloor) is re-launched on an
	// idle host. The first attempt whose part passes the acceptance
	// gate wins; the loser is cancelled without a host strike.
	Speculate bool
	// SpeculateFactor is the straggler multiple k (default 3).
	SpeculateFactor float64
	// SpeculateFloor is the minimum straggler threshold, clamped to no
	// less than the exec transports' heartbeat interval so speculation
	// never outruns liveness evidence. Default 1s.
	SpeculateFloor time.Duration
	// Backoff is the base delay a failed range waits before
	// reassignment: Backoff×2^(attempts-1) with deterministic jitter in
	// [0.5,1.5) keyed by (seed, range, attempt), capped at BackoffMax.
	// Default 100ms; negative disables backoff (immediate requeue).
	Backoff time.Duration
	// BackoffMax caps the exponential backoff delay. Default 5s.
	BackoffMax time.Duration
	// LocalFallback is the terminal graceful-degradation path: when
	// ranges remain but every pool member is excluded or departed, the
	// coordinator computes the leftovers in-process instead of failing
	// the run. The run completes — at local speed — and the Report
	// marks it Degraded.
	LocalFallback bool
	// PoolSource, when non-nil, feeds dynamic membership: hosts join
	// mid-run (picked up at the next scheduling round) or leave
	// gracefully (in-flight work drains, queued work replans onto the
	// survivors). See PoolChan and WatchHosts.
	PoolSource PoolSource
	// Transports maps transport names to implementations, overlaying
	// the built-ins ("local", "remote").
	Transports map[string]Transport
	// OnEvent, when non-nil, observes scheduling events as they happen:
	// transport heartbeats, range completions and failures, and host
	// exclusions. It is the seam a serving layer uses to export live
	// per-host health without polling. Callbacks may arrive concurrently
	// (heartbeats come from transport goroutines) and must return
	// quickly — they run on the scheduler's hot paths.
	OnEvent func(Event)
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// EventType classifies one scheduling event.
type EventType string

// The scheduling event kinds OnEvent observes.
const (
	// EventHeartbeat: the host's transport reported liveness evidence.
	EventHeartbeat EventType = "heartbeat"
	// EventCompleted: the host delivered a validated part for the range.
	EventCompleted EventType = "completed"
	// EventFailed: the host's attempt at the range failed (Err says why).
	EventFailed EventType = "failed"
	// EventExcluded: the host left the pool (repeated failures or a
	// heartbeat lapse); its ranges move to survivors.
	EventExcluded EventType = "excluded"
	// EventSpeculated: a straggling range got a duplicate attempt on an
	// idle host; the first valid part wins, the loser is cancelled
	// without a strike.
	EventSpeculated EventType = "speculated"
	// EventJoined: a host joined the pool mid-run (Options.PoolSource).
	EventJoined EventType = "joined"
	// EventDeparted: a host left the pool gracefully (Options.PoolSource).
	EventDeparted EventType = "departed"
)

// Event is one observed scheduling transition (see Options.OnEvent).
type Event struct {
	Type EventType
	// Host names the pool member the event concerns.
	Host string
	// Range is the plan position concerned (-1 when not range-scoped,
	// e.g. exclusions).
	Range int
	// Err carries the failure message for EventFailed/EventExcluded.
	Err string
}

// Report describes what a scheduled run actually did.
type Report struct {
	Fingerprint string
	// Ranges is the plan the run executed (from the manifest).
	Ranges []shard.Range
	// Uncached[i] is how many cells of Ranges[i] the result store could
	// not serve when this invocation started. Ranges whose envelope was
	// reused report 0 — their cells are already delivered, so nothing is
	// owed and the store is not re-probed for them.
	Uncached []int
	// Reused lists plan positions whose envelope already existed in the
	// directory and validated.
	Reused []int
	// Skipped lists fully-cached positions the coordinator materialized
	// from the store without assigning any host.
	Skipped []int
	// Completed maps each host to the positions it delivered.
	Completed map[string][]int
	// Attempts maps each executed position to how many placements it
	// took across the pool.
	Attempts map[int]int
	// Excluded lists hosts declared dead or repeatedly failing.
	Excluded []string
	// Speculated lists positions that received a speculative duplicate
	// attempt (the duplicate may have won or lost the race).
	Speculated []int
	// Joined and Departed record pool membership changes observed
	// mid-run through Options.PoolSource.
	Joined, Departed []string
	// Fallback lists positions the coordinator computed in-process
	// after the whole pool was lost (Options.LocalFallback). Degraded
	// marks a run that completed only because of that fallback.
	Fallback []int
	Degraded bool
	// Failed lists positions still missing when the run gave up.
	Failed []int
	// CellsComputed and CellsCached split the grid's cells by who did
	// the work, summed over all envelopes.
	CellsComputed, CellsCached int
	// Cache is the coordinator's result-store counters for this run —
	// plan-time probes, coordinator-served ranges, and local fallback
	// all pass through them. Worker subprocesses keep their own (their
	// rejects trigger their own recomputes); a nonzero Rejected here
	// means the coordinator itself saw cache bytes that failed
	// verification.
	Cache store.Counters
	// CacheDegraded marks that the tiered store's remote side was
	// declared down mid-run: the run completed on local cache and
	// compute alone, byte-identical, but its cells never reached the
	// fleet-wide cache.
	CacheDegraded bool
}

// Run schedules the spec's grid across the pool and merges the completed
// envelope set into driver-native output, byte-identical (timing aside)
// to a serial run. An existing directory for the same grid is resumed:
// valid envelopes are reused and only missing ranges execute. On failure
// the error names the ranges still missing and the directory remains
// resumable — by Run, Resume, or dispatch.Resume.
func Run(spec experiments.Spec, opts Options) (*experiments.Output, *Report, error) {
	return RunContext(context.Background(), spec, opts)
}

// RunContext is Run under a cancellation context. Once ctx is done no new
// assignment is placed, every in-flight attempt is cancelled (transports
// kill their workers), and the call returns an error wrapping ctx.Err().
// Delivered parts stay on disk and workers checkpoint through the result
// cache, so a cancelled run resumes exactly like a crashed one.
func RunContext(ctx context.Context, spec experiments.Spec, opts Options) (*experiments.Output, *Report, error) {
	ns, err := spec.Normalize()
	if err != nil {
		return nil, nil, err
	}
	return run(ctx, ns, opts, false)
}

// Resume continues the run recorded in dir: the spec, plan, and cache
// directory all come from the manifest.
func Resume(dir string, opts Options) (*experiments.Output, *Report, error) {
	return ResumeContext(context.Background(), dir, opts)
}

// ResumeContext is Resume under a cancellation context (see RunContext
// for the cancellation semantics).
func ResumeContext(ctx context.Context, dir string, opts Options) (*experiments.Output, *Report, error) {
	m, err := dispatch.ReadManifest(filepath.Join(dir, dispatch.ManifestName))
	if err != nil {
		return nil, nil, fmt.Errorf("sched: %s: %w — nothing to resume (run sched first)", dir, err)
	}
	opts.Dir, opts.CacheDir, opts.RemoteStore = dir, m.CacheDir, m.RemoteStore
	return run(ctx, m.Spec, opts, true)
}

// run is the shared plan → scan → serve/schedule → merge loop.
func run(ctx context.Context, ns experiments.Spec, opts Options, resuming bool) (*experiments.Output, *Report, error) {
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}
	pool, transports, err := buildPool(&opts)
	if err != nil {
		return nil, nil, err
	}
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("sched: no sched directory")
	}
	st, err := store.OpenBackend(opts.CacheDir, opts.RemoteStore)
	if err != nil {
		return nil, nil, err
	}

	m, manifestPath, ranges, uncached, plan, st, err := prepare(ns, &opts, st, resuming)
	if err != nil {
		return nil, nil, err
	}
	manifestBytes, err := os.ReadFile(manifestPath)
	if err != nil {
		return nil, nil, fmt.Errorf("sched: %w", err)
	}
	rep := &Report{
		Fingerprint: m.Fingerprint,
		Ranges:      ranges,
		Completed:   map[string][]int{},
		Attempts:    map[int]int{},
	}
	// Snapshot the coordinator's store view on every exit path: counters
	// (including verification rejects) and, for tiered stores, whether
	// the remote side was declared down mid-run.
	defer func() {
		if st == nil {
			return
		}
		rep.Cache = st.Counters()
		if td, ok := st.(*store.TieredStore); ok && td.Degraded() {
			rep.CacheDegraded = true
		}
	}()

	// Scan: reuse every envelope that still validates; anything else is
	// moved aside and its range re-enters the plan.
	var pending []int
	for i := range ranges {
		path := filepath.Join(opts.Dir, dispatch.PartName(i))
		switch err := dispatch.ValidatePart(path, m, i); {
		case err == nil:
			rep.Reused = append(rep.Reused, i)
		case errors.Is(err, fs.ErrNotExist):
			pending = append(pending, i)
		default:
			bad := path + ".invalid"
			os.Rename(path, bad)
			logf("sched: range %d: discarding invalid envelope (%v), moved to %s", i, err, bad)
			pending = append(pending, i)
		}
	}
	// An adopted manifest's uncached counts are computed only now, and
	// only for pending ranges: re-entering a completed directory must
	// not pay a verified store probe per cell of the whole grid. The
	// cache may have grown since the manifest was written, so skip
	// decisions always reflect the store's current state.
	if uncached == nil {
		uncached = make([]int, len(ranges))
		for _, i := range pending {
			uncached[i] = experiments.UncachedInRange(m.Fingerprint, m.Spec.Seed, ranges[i], st)
		}
	}
	rep.Uncached = uncached
	totalSlots, totalCells := 0, 0
	for _, h := range pool {
		totalSlots += h.Slots
	}
	if len(ranges) > 0 {
		totalCells = ranges[len(ranges)-1].End
	}
	logf("sched: %d range(s) over %d cells (%d uncached) across %d host(s), %d slot(s)",
		len(ranges), totalCells, sum(uncached), len(pool), totalSlots)

	// Serve: fully-cached pending ranges never reach a host — the
	// coordinator materializes them straight from the result store
	// (every cell a verified hit, so the envelope reports computed=0).
	var work []int
	for _, i := range pending {
		if err := ctx.Err(); err != nil {
			return nil, rep, fmt.Errorf("sched: cancelled — re-run sched with the same -dir to pick up: %w", err)
		}
		if uncached[i] > 0 {
			work = append(work, i)
			continue
		}
		// Fresh plans carry the payloads the cache-aware probe verified,
		// so serving needs no second store pass; adopted manifests (nil
		// plan) and entries gone bad since probing take the store path.
		env, ok := plan.ServeEnvelope(i)
		if !ok {
			if env, err = experiments.RunShardPlanned(m.Spec, ranges, i, st); err != nil {
				return nil, rep, err
			}
		}
		data, err := env.Encode()
		if err != nil {
			return nil, rep, err
		}
		if err := store.WriteFileAtomic(filepath.Join(opts.Dir, dispatch.PartName(i)), data); err != nil {
			return nil, rep, fmt.Errorf("sched: %w", err)
		}
		rep.Skipped = append(rep.Skipped, i)
		logf("sched: range %d fully cached (%d cells) — served by the coordinator", i, len(env.Indices))
	}
	logf("sched: %d reused, %d served from cache, %d assigned to hosts",
		len(rep.Reused), len(rep.Skipped), len(work))

	// Schedule: place work ranges on hosts until everything is delivered
	// or nothing eligible remains. The pool comes back because joins may
	// have grown it mid-run.
	if len(work) > 0 {
		pool = schedule(ctx, pool, transports, work, m, manifestPath, manifestBytes, opts, rep, logf)
	}
	for name := range rep.Completed {
		sort.Ints(rep.Completed[name])
	}
	// Terminal graceful degradation: when ranges remain but no pool
	// member can take work any more, the coordinator finishes the job
	// itself — in-process, at local speed — rather than failing a run
	// that one machine can still complete. The envelopes are computed by
	// the same planned-shard path workers use, so the merged bytes stay
	// identical; only the Report records who did the work.
	if len(rep.Failed) > 0 && opts.LocalFallback && ctx.Err() == nil && poolDead(pool) {
		sort.Ints(rep.Failed)
		logf("sched: every host is gone — completing %d range(s) in-process (degraded)", len(rep.Failed))
		for _, i := range rep.Failed {
			env, err := experiments.RunShardPlanned(m.Spec, ranges, i, st)
			if err != nil {
				return nil, rep, err
			}
			data, err := env.Encode()
			if err != nil {
				return nil, rep, err
			}
			if err := store.WriteFileAtomic(filepath.Join(opts.Dir, dispatch.PartName(i)), data); err != nil {
				return nil, rep, fmt.Errorf("sched: %w", err)
			}
			rep.Fallback = append(rep.Fallback, i)
			logf("sched: range %d completed by the coordinator's local fallback", i)
		}
		rep.Failed = nil
		rep.Degraded = true
	}
	if len(rep.Failed) > 0 {
		sort.Ints(rep.Failed)
		var idxs []string
		for _, i := range rep.Failed {
			idxs = append(idxs, strconv.Itoa(i))
		}
		// A cancelled run reports the cancellation itself (errors.Is-able)
		// rather than a scheduling failure it never had.
		if err := ctx.Err(); err != nil {
			return nil, rep, fmt.Errorf("sched: cancelled with range(s) %s still missing — %d of %d range(s) completed; re-run sched with the same -dir to pick up: %w",
				strings.Join(idxs, ", "), len(ranges)-len(rep.Failed), len(ranges), err)
		}
		return nil, rep, fmt.Errorf("sched: range(s) %s still missing — %d of %d range(s) completed; re-run sched with the same -dir (or `fairbench resume -dir %s`) to pick up from them",
			strings.Join(idxs, ", "), len(ranges)-len(rep.Failed), len(ranges), opts.Dir)
	}

	// Merge: every part re-reads through the named path so residual
	// inconsistency is attributed to its file.
	envs := make([]*shard.Envelope, len(ranges))
	names := make([]string, len(ranges))
	for i := range ranges {
		path := filepath.Join(opts.Dir, dispatch.PartName(i))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, rep, fmt.Errorf("sched: %w", err)
		}
		if envs[i], err = shard.Decode(data); err != nil {
			return nil, rep, fmt.Errorf("sched: %s: %w", path, err)
		}
		names[i] = path
		rep.CellsCached += len(envs[i].Cached)
		rep.CellsComputed += len(envs[i].Indices) - len(envs[i].Cached)
	}
	out, err := experiments.MergeShardsNamed(envs, names)
	if err != nil {
		return nil, rep, err
	}
	logf("sched: merged %d range(s) (cells computed=%d cached=%d)",
		len(ranges), rep.CellsComputed, rep.CellsCached)
	return out, rep, nil
}

// hostState is one pool member's scheduling state.
type hostState struct {
	Host
	transport Transport
	inflight  int
	failures  int
	excluded  bool
	// departed marks a graceful PoolSource leave: no new assignments,
	// in-flight attempts drain, no strikes involved.
	departed bool
}

// poolDead reports whether no pool member can accept work any more.
func poolDead(pool []*hostState) bool {
	for _, hs := range pool {
		if !hs.excluded && !hs.departed {
			return false
		}
	}
	return true
}

// buildPool fills option defaults and resolves each host's transport,
// returning the pool and the full transport registry (joining hosts
// resolve against it mid-run).
func buildPool(opts *Options) ([]*hostState, map[string]Transport, error) {
	if len(opts.Hosts) == 0 {
		opts.Hosts = []Host{{Name: "local", Slots: runtime.GOMAXPROCS(0)}}
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 60 * time.Second
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	} else if opts.Retries == 0 {
		opts.Retries = 1
	}
	if opts.MaxHostFailures <= 0 {
		opts.MaxHostFailures = 3
	}
	if opts.SpeculateFactor <= 0 {
		opts.SpeculateFactor = 3
	}
	if opts.SpeculateFloor <= 0 {
		opts.SpeculateFloor = time.Second
	}
	if opts.SpeculateFloor < heartbeatEvery {
		opts.SpeculateFloor = heartbeatEvery
	}
	switch {
	case opts.Backoff == 0:
		opts.Backoff = 100 * time.Millisecond
	case opts.Backoff < 0:
		opts.Backoff = 0
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 5 * time.Second
	}
	if opts.BackoffMax < opts.Backoff {
		opts.BackoffMax = opts.Backoff
	}
	transports := map[string]Transport{"local": &LocalExec{}, "remote": &RemoteExec{}}
	for name, t := range opts.Transports {
		transports[name] = t
	}
	seen := map[string]bool{}
	pool := make([]*hostState, len(opts.Hosts))
	for i, h := range opts.Hosts {
		if h.Name == "" {
			return nil, nil, fmt.Errorf("sched: host %d has no name", i)
		}
		if seen[h.Name] {
			return nil, nil, fmt.Errorf("sched: duplicate host name %q", h.Name)
		}
		seen[h.Name] = true
		if h.Slots <= 0 {
			h.Slots = 1
		}
		key := h.Transport
		if key == "" {
			key = "local"
		}
		tr, ok := transports[key]
		if !ok {
			return nil, nil, fmt.Errorf("sched: host %s names unknown transport %q", h.Name, key)
		}
		pool[i] = &hostState{Host: h, transport: tr}
	}
	if opts.Shards <= 0 {
		for _, h := range pool {
			opts.Shards += h.Slots
		}
	}
	return pool, transports, nil
}

// prepare creates the manifest for a fresh directory — planning
// cache-aware against the store — or adopts an existing one, keeping its
// recorded plan so resumes and late workers agree on the boundaries the
// original run chose. Either way the current build must materialize the
// manifest's fingerprint. The returned store is the run's effective
// result cache: adopting a manifest adopts its cache directory too, so a
// re-run that omitted the cache option still plans (and serves) against
// the cache the directory was scheduled with.
// A fresh directory's plan also rides back whole (nil when adopting an
// existing manifest): it carries the payloads the cache-aware probe
// already verified, letting the serve step materialize fully-cached
// ranges without a second pass over the store.
func prepare(ns experiments.Spec, opts *Options, st store.Backend, resuming bool) (*dispatch.Manifest, string, []shard.Range, []int, *experiments.ShardPlan, store.Backend, error) {
	fail := func(err error) (*dispatch.Manifest, string, []shard.Range, []int, *experiments.ShardPlan, store.Backend, error) {
		return nil, "", nil, nil, nil, nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return fail(fmt.Errorf("sched: %w", err))
	}
	manifestPath := filepath.Join(opts.Dir, dispatch.ManifestName)
	existing, err := dispatch.ReadManifest(manifestPath)
	switch {
	case err == nil:
		g, err := experiments.Open(existing.Spec)
		if err != nil {
			return fail(err)
		}
		fp, err := g.Fingerprint()
		if err != nil {
			return fail(err)
		}
		if fp != existing.Fingerprint {
			return fail(fmt.Errorf("sched: manifest fingerprint %.12s… but this build materializes %.12s… — grid definition drift; schedule into a fresh directory",
				existing.Fingerprint, fp))
		}
		if !resuming {
			want, err := experiments.Open(ns)
			if err != nil {
				return fail(err)
			}
			wfp, err := want.Fingerprint()
			if err != nil {
				return fail(err)
			}
			if wfp != existing.Fingerprint {
				return fail(fmt.Errorf("sched: %s already holds a different run (fingerprint %.12s…); use a fresh directory or resume that run",
					opts.Dir, existing.Fingerprint))
			}
			if opts.CacheDir != "" && opts.CacheDir != existing.CacheDir {
				return fail(fmt.Errorf("sched: %s was scheduled with cache directory %q; re-scheduling cannot change it to %q — use a fresh directory",
					opts.Dir, existing.CacheDir, opts.CacheDir))
			}
			if opts.RemoteStore != "" && opts.RemoteStore != existing.RemoteStore {
				return fail(fmt.Errorf("sched: %s was scheduled with remote store %q; re-scheduling cannot change it to %q — use a fresh directory",
					opts.Dir, existing.RemoteStore, opts.RemoteStore))
			}
		}
		adopted := opts.CacheDir != existing.CacheDir || opts.RemoteStore != existing.RemoteStore
		opts.CacheDir, opts.RemoteStore = existing.CacheDir, existing.RemoteStore
		if st == nil || adopted {
			if st, err = store.OpenBackend(existing.CacheDir, existing.RemoteStore); err != nil {
				return fail(err)
			}
		}
		ranges := existing.Ranges
		if len(ranges) == 0 {
			// A plain dispatch manifest: its workers used the uniform
			// aligned split, so the scheduler must too.
			if ranges, err = experiments.PlanShards(existing.Spec, existing.Shards); err != nil {
				return fail(err)
			}
		}
		// Uncached counts are left nil: run() computes them after the
		// part scan, for pending ranges only.
		return existing, manifestPath, ranges, nil, nil, st, nil
	case errors.Is(err, fs.ErrNotExist):
		if resuming {
			return fail(fmt.Errorf("sched: %s: %w — nothing to resume", opts.Dir, err))
		}
		plan, err := experiments.PlanShardsCacheAware(ns, opts.Shards, st)
		if err != nil {
			return fail(err)
		}
		m := &dispatch.Manifest{
			Version:     dispatch.ManifestVersion,
			Spec:        plan.Spec,
			Shards:      len(plan.Ranges),
			Fingerprint: plan.Fingerprint,
			CacheDir:    opts.CacheDir,
			RemoteStore: opts.RemoteStore,
			Ranges:      plan.Ranges,
		}
		if err := m.Write(manifestPath); err != nil {
			return fail(err)
		}
		return m, manifestPath, plan.Ranges, plan.Uncached, plan, st, nil
	default:
		return fail(err)
	}
}

// rangeState is one work range's scheduling state.
type rangeState struct {
	idx      int
	attempts int
	rounds   int
	excluded map[string]bool
	lastErr  error
	// inflight counts live attempts — more than one while a speculative
	// duplicate races the original.
	inflight int
	// done marks the exactly-once acceptance: the first attempt whose
	// part validated was renamed into place; everything after is a loser.
	done bool
	// failed guards rep.Failed against duplicate entries when several
	// attempts of one range drain during cancellation.
	failed bool
	// notBefore is the backoff gate: the range is not reassigned before
	// this instant.
	notBefore time.Time
	// speculated remembers that this range already counted toward
	// rep.Speculated.
	speculated bool
}

// flight is one in-flight assignment.
type flight struct {
	id          int
	host        *hostState
	rng         *rangeState
	lastBeat    atomic.Int64
	cancel      context.CancelFunc
	started     time.Time
	outTmp      string
	speculative bool
	// abandoned marks a flight the scheduler cancelled itself (heartbeat
	// lapse, speculation loss): its eventual report is reaped, never
	// acted on.
	abandoned bool
	// released guards the one-time return of the flight's host slot and
	// range inflight count.
	released bool
}

type doneEvent struct {
	id  int
	err error
	// outTmp is the surviving attempt file on success; empty after a
	// failure (the flight goroutine already removed it).
	outTmp string
}

// schedule places the work ranges on the pool and drives them to
// completion, reassigning around failed attempts (after exponential
// backoff with deterministic jitter), dead heartbeats, speculation
// races, and membership changes. Failures that exhaust every option
// land in rep.Failed. A done ctx drains the loop: queued ranges fail
// immediately (resumable) and in-flight attempts are cancelled.
//
// The loop returns only once every launched transport goroutine has
// reported — abandoned attempts (heartbeat lapses, speculation losers)
// are cancelled and then reaped, never leaked past the run. It returns
// the final pool, which joins may have grown mid-run.
func schedule(ctx context.Context, pool []*hostState, transports map[string]Transport, work []int,
	m *dispatch.Manifest, manifestPath string, manifestBytes []byte, opts Options, rep *Report,
	logf func(string, ...any)) []*hostState {
	queue := make([]*rangeState, len(work))
	for i, idx := range work {
		queue[i] = &rangeState{idx: idx, excluded: map[string]bool{}}
	}
	// flights holds every launched-but-unreported attempt, including
	// abandoned ones awaiting their reap; the loop exits only when it is
	// empty, so sends below always find a receiver eventually.
	events := make(chan doneEvent, 64)
	flights := map[int]*flight{}
	nextID := 0
	// durations collects accepted-attempt runtimes — the basis of the
	// straggler estimate (median × SpeculateFactor).
	var durations []time.Duration
	emit := func(ev Event) {
		if opts.OnEvent != nil {
			opts.OnEvent(ev)
		}
	}

	var poolCh <-chan PoolUpdate
	if opts.PoolSource != nil {
		ch, unsubscribe := opts.PoolSource.Subscribe()
		defer unsubscribe()
		poolCh = ch
	}

	checkEvery := opts.HeartbeatTimeout / 4
	if checkEvery < 5*time.Millisecond {
		checkEvery = 5 * time.Millisecond
	}
	ticker := time.NewTicker(checkEvery)
	defer ticker.Stop()

	live := func(hs *hostState) bool { return !hs.excluded && !hs.departed }
	eligible := func(pr *rangeState) bool {
		for _, hs := range pool {
			if live(hs) && !pr.excluded[hs.Name] {
				return true
			}
		}
		return false
	}
	pickHost := func(pr *rangeState, not *hostState) *hostState {
		var best *hostState
		for _, hs := range pool {
			if !live(hs) || hs == not || pr.excluded[hs.Name] || hs.inflight >= hs.Slots {
				continue
			}
			if best == nil || hs.Slots-hs.inflight > best.Slots-best.inflight {
				best = hs
			}
		}
		return best
	}
	release := func(fl *flight) {
		if !fl.released {
			fl.released = true
			fl.host.inflight--
			fl.rng.inflight--
		}
	}
	abandon := func(fl *flight) {
		if !fl.abandoned {
			fl.abandoned = true
			fl.cancel()
			release(fl)
		}
	}
	backoffUntil := func(pr *rangeState) time.Time {
		if opts.Backoff <= 0 {
			return time.Time{}
		}
		shift := pr.attempts - 1
		if shift > 20 {
			shift = 20
		}
		d := opts.Backoff << uint(shift)
		if d <= 0 || d > opts.BackoffMax {
			d = opts.BackoffMax
		}
		// Deterministic jitter in [0.5,1.5), keyed by (seed, range,
		// attempt): identical runs replay identical retry schedules, but
		// ranges failing together don't thunder back together.
		j := rng.Derive(m.Spec.Seed, int64(pr.idx)<<20+int64(pr.attempts)).Float64()
		return time.Now().Add(time.Duration(float64(d) * (0.5 + j)))
	}
	finalFail := func(pr *rangeState) {
		if !pr.failed {
			pr.failed = true
			rep.Failed = append(rep.Failed, pr.idx)
			rep.Attempts[pr.idx] = pr.attempts
		}
	}
	fail := func(hs *hostState, pr *rangeState, err error) {
		hs.failures++
		pr.excluded[hs.Name] = true
		pr.lastErr = err
		logf("sched: host %s: range %d failed: %v", hs.Name, pr.idx, err)
		emit(Event{Type: EventFailed, Host: hs.Name, Range: pr.idx, Err: err.Error()})
		if hs.failures >= opts.MaxHostFailures && !hs.excluded {
			hs.excluded = true
			rep.Excluded = append(rep.Excluded, hs.Name)
			logf("sched: excluding host %s after %d failure(s); reassigning its work to survivors", hs.Name, hs.failures)
			emit(Event{Type: EventExcluded, Host: hs.Name, Range: -1,
				Err: fmt.Sprintf("%d failed attempt(s)", hs.failures)})
		}
		if pr.inflight > 0 {
			// A speculative sibling is still racing: the range is not
			// requeued — the survivor decides its fate.
			return
		}
		pr.notBefore = backoffUntil(pr)
		queue = append(queue, pr)
	}
	launch := func(hs *hostState, pr *rangeState, speculative bool) {
		id := nextID
		nextID++
		flctx, cancel := context.WithCancel(ctx)
		fl := &flight{id: id, host: hs, rng: pr, cancel: cancel, started: time.Now(), speculative: speculative}
		fl.lastBeat.Store(fl.started.UnixNano())
		flights[id] = fl
		hs.inflight++
		pr.inflight++
		pr.attempts++
		partPath := filepath.Join(opts.Dir, dispatch.PartName(pr.idx))
		fl.outTmp = fmt.Sprintf("%s.attempt-%d", partPath, id)
		if speculative {
			if !pr.speculated {
				pr.speculated = true
				rep.Speculated = append(rep.Speculated, pr.idx)
			}
			emit(Event{Type: EventSpeculated, Host: hs.Name, Range: pr.idx})
		}
		suffix := ""
		if speculative {
			suffix = ", speculative"
		}
		logf("sched: range %d → host %s (attempt %d%s)", pr.idx, hs.Name, pr.attempts, suffix)
		// The attempt keeps the host definition it was launched with: a
		// rejoin rewrites hs.Host and hs.transport on this loop while the
		// attempt runs, so the goroutine must not read them.
		outTmp, tr, host, rangeIdx := fl.outTmp, hs.transport, hs.Host, pr.idx
		go func() {
			defer cancel()
			err := tr.Run(flctx, host, Assignment{
				ManifestPath: manifestPath, Manifest: manifestBytes, Range: rangeIdx, OutPath: outTmp,
			}, func() {
				fl.lastBeat.Store(time.Now().UnixNano())
				emit(Event{Type: EventHeartbeat, Host: host.Name, Range: rangeIdx})
			})
			if err == nil && flctx.Err() != nil {
				// The scheduler abandoned this attempt (heartbeat lapse,
				// speculation loss) and may already have accepted — or
				// merged — the range; a zombie's late success must not
				// touch the part.
				err = flctx.Err()
			}
			if err != nil {
				os.Remove(outTmp)
				events <- doneEvent{id: id, err: err}
				return
			}
			// Acceptance is NOT decided here: the event loop validates and
			// renames exactly one attempt per range, so racing winners
			// cannot both promote their files.
			events <- doneEvent{id: id, outTmp: outTmp}
		}()
	}
	maybeSpeculate := func() {
		if !opts.Speculate || len(durations) == 0 {
			return
		}
		threshold := time.Duration(opts.SpeculateFactor * float64(median(durations)))
		if threshold < opts.SpeculateFloor {
			threshold = opts.SpeculateFloor
		}
		now := time.Now()
		for _, fl := range flights {
			if fl.abandoned || fl.rng.done || fl.rng.inflight != 1 || now.Sub(fl.started) < threshold {
				continue
			}
			hs := pickHost(fl.rng, fl.host)
			if hs == nil {
				continue
			}
			logf("sched: range %d on host %s is a straggler (%v > %v) — speculating on %s",
				fl.rng.idx, fl.host.Name, now.Sub(fl.started).Round(time.Millisecond), threshold.Round(time.Millisecond), hs.Name)
			launch(hs, fl.rng, true)
		}
	}
	applyPoolUpdate := func(up PoolUpdate) {
		for _, name := range up.Leave {
			for _, hs := range pool {
				if hs.Name != name || hs.departed {
					continue
				}
				hs.departed = true
				rep.Departed = append(rep.Departed, name)
				logf("sched: host %s left the pool: no new assignments, %d in-flight attempt(s) drain", name, hs.inflight)
				emit(Event{Type: EventDeparted, Host: name, Range: -1})
			}
		}
		for _, h := range up.Join {
			if h.Name == "" {
				logf("sched: ignoring joining host with no name")
				continue
			}
			if h.Slots <= 0 {
				h.Slots = 1
			}
			key := h.Transport
			if key == "" {
				key = "local"
			}
			tr, ok := transports[key]
			if !ok {
				logf("sched: ignoring joining host %s: unknown transport %q", h.Name, key)
				continue
			}
			rejoined := false
			for _, hs := range pool {
				if hs.Name != h.Name {
					continue
				}
				// An explicit re-add is an operator's vote of confidence:
				// refresh the definition and clear strikes, exclusion, and
				// departure so the host earns work again.
				hs.Host, hs.transport = h, tr
				hs.departed, hs.excluded, hs.failures = false, false, 0
				rejoined = true
			}
			if !rejoined {
				pool = append(pool, &hostState{Host: h, transport: tr})
			}
			rep.Joined = append(rep.Joined, h.Name)
			logf("sched: host %s joined the pool (%d slot(s), transport %s)", h.Name, h.Slots, key)
			emit(Event{Type: EventJoined, Host: h.Name, Range: -1})
		}
	}

	ctxDone := ctx.Done()
	for {
		// Assign every queued range an eligible host with a free slot;
		// ranges every live host has failed get their exclusions reset
		// (one round) until the retry budget runs out; ranges inside
		// their backoff window wait for the ticker. A done ctx stops
		// launching: queued ranges drain straight to Failed (the
		// directory stays resumable) while in-flight attempts wind down.
		for progress := true; progress; {
			progress = false
			var still []*rangeState
			for _, pr := range queue {
				if ctx.Err() != nil {
					finalFail(pr)
					continue
				}
				if !eligible(pr) {
					if pr.rounds < opts.Retries {
						pr.rounds++
						pr.excluded = map[string]bool{}
						logf("sched: range %d: every live host has failed it; retry round %d/%d", pr.idx, pr.rounds, opts.Retries)
						progress = true
						still = append(still, pr)
					} else {
						finalFail(pr)
						logf("sched: range %d failed for good after %d attempt(s): %v", pr.idx, pr.attempts, pr.lastErr)
					}
					continue
				}
				if time.Now().Before(pr.notBefore) {
					still = append(still, pr)
					continue
				}
				if hs := pickHost(pr, nil); hs != nil {
					launch(hs, pr, false)
					progress = true
					continue
				}
				still = append(still, pr)
			}
			queue = still
		}
		// A range inside its backoff window needs a wake-up of its own —
		// the heartbeat ticker can be many seconds coarse.
		var wake <-chan time.Time
		var wakeTimer *time.Timer
		var earliest time.Time
		for _, pr := range queue {
			if eligible(pr) && time.Now().Before(pr.notBefore) {
				if earliest.IsZero() || pr.notBefore.Before(earliest) {
					earliest = pr.notBefore
				}
			}
		}
		if len(flights) == 0 && earliest.IsZero() {
			// Nothing running, nothing waiting out a backoff, nothing
			// assignable: the pool is dead for whatever remains.
			for _, pr := range queue {
				finalFail(pr)
			}
			return pool
		}
		if !earliest.IsZero() {
			d := time.Until(earliest)
			if d < time.Millisecond {
				d = time.Millisecond
			}
			wakeTimer = time.NewTimer(d)
			wake = wakeTimer.C
		}
		select {
		case ev := <-events:
			fl, ok := flights[ev.id]
			if !ok {
				break
			}
			delete(flights, ev.id)
			wasAbandoned := fl.abandoned
			release(fl)
			pr, hs := fl.rng, fl.host
			switch {
			case pr.done || wasAbandoned:
				// A speculation loser or reaped zombie: discard whatever
				// it produced. Losing a race is not a failure — no strike.
				if ev.outTmp != "" {
					os.Remove(ev.outTmp)
				}
			case ev.err == nil:
				// Exactly-once acceptance: the event loop is the only
				// place an attempt file becomes the part, so a racing
				// sibling can never overwrite a decided range.
				partPath := filepath.Join(opts.Dir, dispatch.PartName(pr.idx))
				if aerr := dispatch.AcceptPart(ev.outTmp, partPath, m, pr.idx); aerr != nil {
					os.Remove(ev.outTmp)
					if ctx.Err() != nil {
						pr.lastErr = aerr
						finalFail(pr)
						break
					}
					fail(hs, pr, fmt.Errorf("host %s produced an invalid part: %w", hs.Name, aerr))
					break
				}
				pr.done = true
				durations = append(durations, time.Since(fl.started))
				rep.Completed[hs.Name] = append(rep.Completed[hs.Name], pr.idx)
				rep.Attempts[pr.idx] = pr.attempts
				if fl.speculative {
					logf("sched: range %d: speculative attempt on host %s won the race", pr.idx, hs.Name)
				}
				emit(Event{Type: EventCompleted, Host: hs.Name, Range: pr.idx})
				for _, sib := range flights {
					if sib.rng == pr && !sib.abandoned {
						logf("sched: range %d: cancelling losing attempt on host %s (no strike)", pr.idx, sib.host.Name)
						abandon(sib)
					}
				}
			case ctx.Err() != nil:
				// Cancelled, not a host's fault: no strike, no exclusion —
				// record the range as missing and drain.
				pr.lastErr = ev.err
				finalFail(pr)
			default:
				fail(hs, pr, ev.err)
			}
		case <-wake:
			// A backoff window closed: fall through to the assign loop.
		case up := <-poolCh:
			applyPoolUpdate(up)
		case <-ctxDone:
			ctxDone = nil
			for _, fl := range flights {
				fl.cancel()
			}
		case <-ticker.C:
			deadline := time.Now().Add(-opts.HeartbeatTimeout).UnixNano()
			for _, fl := range flights {
				if fl.abandoned || fl.lastBeat.Load() >= deadline {
					continue
				}
				// A heartbeat lapse is a death sentence, not a strike: the
				// transport itself went unresponsive, so the host leaves
				// the pool immediately instead of collecting further
				// ranges until MaxHostFailures.
				if !fl.host.excluded {
					fl.host.excluded = true
					rep.Excluded = append(rep.Excluded, fl.host.Name)
					logf("sched: excluding host %s: no heartbeat for %s", fl.host.Name, opts.HeartbeatTimeout)
					emit(Event{Type: EventExcluded, Host: fl.host.Name, Range: fl.rng.idx,
						Err: fmt.Sprintf("no heartbeat for %s", opts.HeartbeatTimeout)})
				}
				abandon(fl)
				if !fl.rng.done {
					fail(fl.host, fl.rng, fmt.Errorf("no heartbeat from host %s for %s — declared dead", fl.host.Name, opts.HeartbeatTimeout))
				}
			}
			maybeSpeculate()
		}
		if wakeTimer != nil {
			wakeTimer.Stop()
		}
	}
}

// median returns the middle value of ds (upper middle for even counts);
// callers guarantee ds is non-empty.
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
