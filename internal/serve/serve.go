// Package serve turns the execution engine into benchmark-as-a-service:
// a persistent HTTP/JSON daemon that accepts grid specs, executes them
// on the engine's backends, and serves results to many concurrent
// clients. It is the layer that makes the stack's guarantees —
// byte-identical merges, fingerprint-keyed caching, resumable
// directories — hold for traffic instead of one-shot CLI invocations.
//
// The HTTP surface:
//
//	POST /runs              submit a GridSpec; returns a run handle
//	GET  /runs              list known runs
//	GET  /runs/{id}         status snapshot (state, progress, cell split)
//	GET  /runs/{id}/stream  chunked JSON: partial rows as shards land
//	GET  /runs/{id}/table   the rendered tables (byte-identical to CLI)
//	GET  /metrics           Prometheus text: runs, cells, store, hosts
//	GET  /healthz           liveness
//
// Server-side semantics:
//
//   - one computation per grid: a run's id is a prefix of its grid
//     fingerprint, so concurrent submissions of the same grid dedupe
//     onto one executing run with many waiters;
//   - warm serving: a fully-cached grid is materialized from the
//     result store by the daemon itself — computed=0, no worker
//     subprocess, no host;
//   - admission control: when MaxConcurrent runs are executing, new
//     grids are rejected with 429 and a Retry-After hint rather than
//     queued without bound;
//   - graceful drain: Drain stops admission and cancels in-flight runs;
//     because every run lives in a manifest-backed directory under
//     StateDir, a drained (or killed) daemon's runs resume on restart
//     via ResumeInterrupted and still merge byte-identical to serial.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"fairbench/internal/dispatch"
	"fairbench/internal/engine"
	"fairbench/internal/experiments"
	"fairbench/internal/report"
	"fairbench/internal/sched"
	"fairbench/internal/shard"
	"fairbench/internal/store"
)

// Config configures a Server. StateDir is required; everything else
// has serviceable defaults.
type Config struct {
	// StateDir is the daemon's root: each run gets a resumable
	// manifest-backed subdirectory StateDir/<id>. Created if missing.
	StateDir string
	// MaxConcurrent caps concurrently executing runs; submissions
	// beyond it are rejected with 429. Default 1 (each run already
	// parallelizes across the worker pool).
	MaxConcurrent int
	// Run holds the engine options every run inherits. The server
	// always schedules (Backend sched), sets Dir per run, and feeds
	// Run.Sched's PoolSource and OnEvent itself, on a copy. Run.CacheDir,
	// when set, is the shared result store: runs serve already-computed
	// cells from it, fully-cached grids never reach a worker, and the
	// daemon mounts it at /cache/ so other machines point -remote-store
	// at this daemon and share its cells. Run.Sched.Hosts, when
	// non-empty, is the pool every run is scheduled across; otherwise
	// runs go to one local host of Run.Parallelism slots. Only a daemon
	// with Hosts accepts POST /pool membership changes.
	Run engine.RunOptions
	// Spawn, when set, replaces Run.Spawn: it overrides how worker
	// subprocesses are created.
	Spawn dispatch.SpawnFunc
}

// streamInterval is how often /runs/{id}/stream polls the run directory
// for newly landed shards; a run's end is signalled at once, whatever
// the interval.
const streamInterval = 100 * time.Millisecond

// runState is the lifecycle of one run.
type runState string

const (
	stateRunning runState = "running"
	stateDone    runState = "done"
	stateFailed  runState = "failed"
)

// run is one deduplicated grid computation and its result.
type run struct {
	id   string
	dir  string
	spec experiments.Spec

	mu       sync.Mutex
	state    runState
	errMsg   string
	output   *experiments.Output
	report   *engine.Report
	started  time.Time
	finished time.Time
	// shards is the run's plan size, read from its manifest by the first
	// status poll that finds one (0 until then): a written plan's shard
	// count never changes, so later polls only stat the part files.
	shards int

	cancel context.CancelFunc
	done   chan struct{}
}

// hostHealth aggregates sched events for one pool member.
type hostHealth struct {
	lastBeat   time.Time
	completed  int64
	failed     int64
	speculated int64
	excluded   bool
	departed   bool
}

// Server is the benchmark-as-a-service daemon state. Create with New,
// mount Handler on an http.Server, and call Drain on shutdown.
type Server struct {
	cfg Config
	eng *engine.Engine

	// pool fans dynamic membership changes (the POST /pool admin
	// endpoint) out to every running sched-backed run; hostsFile is the
	// configured pool (Run.Sched.Hosts), the only hosts it may join.
	pool      *sched.PoolChan
	hostsFile []sched.Host

	mu       sync.Mutex
	runs     map[string]*run
	active   int
	draining bool
	hosts    map[string]*hostHealth
	counters struct {
		submitted, deduped, completed, failed, resumed int64
		cellsComputed, cellsCached                     int64
		speculated, joined, departed, degraded         int64
		storeRejected, cacheDegraded                   int64
	}

	// cacheStore is the daemon's handle on Run.CacheDir, opened once: it
	// backs the /cache/ protocol mount and the store gauges/counters in
	// /metrics. Nil when no CacheDir is configured.
	cacheStore *store.DiskStore

	wg         sync.WaitGroup
	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// New builds a Server over cfg, creating StateDir if needed. Call
// ResumeInterrupted afterwards to pick up runs a previous daemon left
// unfinished.
func New(cfg Config) (*Server, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("serve: Config.StateDir is required")
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, err
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 1
	}
	s := &Server{
		cfg:  cfg,
		runs: map[string]*run{},
		pool: sched.NewPoolChan(),
	}
	s.hosts = map[string]*hostHealth{}
	if cfg.Run.CacheDir != "" {
		st, err := store.Open(cfg.Run.CacheDir)
		if err != nil {
			return nil, err
		}
		s.cacheStore = st
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	var so sched.Options
	if cfg.Run.Sched != nil {
		so = *cfg.Run.Sched
	}
	s.hostsFile = so.Hosts
	so.PoolSource, so.OnEvent = s.pool, s.onSchedEvent
	opts := cfg.Run
	opts.Backend, opts.Sched = engine.BackendSched, &so
	if cfg.Spawn != nil {
		opts.Spawn = cfg.Spawn
	}
	s.eng = engine.New(opts)
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Run.Log != nil {
		fmt.Fprintf(s.cfg.Run.Log, format+"\n", args...)
	}
}

// onSchedEvent feeds /metrics per-host health from the scheduler's
// event stream. Called concurrently from scheduler goroutines.
func (s *Server) onSchedEvent(ev sched.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.hosts[ev.Host]
	if h == nil {
		h = &hostHealth{}
		s.hosts[ev.Host] = h
	}
	switch ev.Type {
	case sched.EventHeartbeat:
		h.lastBeat = time.Now()
	case sched.EventCompleted:
		h.completed++
	case sched.EventFailed:
		h.failed++
	case sched.EventExcluded:
		h.excluded = true
	case sched.EventSpeculated:
		h.speculated++
		s.counters.speculated++
	case sched.EventJoined:
		// A (re)join clears prior exclusion/departure: the scheduler
		// trusts the host again, so health reporting should too.
		h.excluded, h.departed = false, false
		s.counters.joined++
	case sched.EventDeparted:
		h.departed = true
		s.counters.departed++
	}
}

// RunID returns the run id the spec's grid dedupes onto: a prefix of
// the grid fingerprint, so identical grids collide by construction.
func RunID(spec experiments.Spec) (string, error) {
	g, err := experiments.Open(spec)
	if err != nil {
		return "", err
	}
	fp, err := g.Fingerprint()
	if err != nil {
		return "", err
	}
	return fp[:16], nil
}

const (
	specFileName   = "spec.json"
	outputFileName = "output.json"
	reportFileName = "report.json"
)

// ResumeInterrupted scans StateDir for runs a previous daemon left
// behind: completed runs (an output.json) are registered as done, and
// unfinished manifest-backed runs are relaunched through the engine's
// resume path. Returns how many runs were relaunched.
func (s *Server) ResumeInterrupted() (int, error) {
	entries, err := os.ReadDir(s.cfg.StateDir)
	if err != nil {
		return 0, err
	}
	resumed := 0
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		id := ent.Name()
		dir := filepath.Join(s.cfg.StateDir, id)
		spec, err := readSpec(dir)
		if err != nil {
			s.logf("serve: skipping %s: %v", dir, err)
			continue
		}
		r := &run{id: id, dir: dir, spec: spec, done: make(chan struct{}), started: time.Now()}
		if data, err := os.ReadFile(filepath.Join(dir, outputFileName)); err == nil {
			var out experiments.Output
			if json.Unmarshal(data, &out) == nil {
				r.state = stateDone
				r.output = &out
				r.report = readReport(dir)
				r.finished = time.Now()
				close(r.done)
				s.mu.Lock()
				s.runs[id] = r
				s.mu.Unlock()
				continue
			}
		}
		s.launch(r)
		resumed++
		s.counters.resumed++
		s.logf("serve: resuming interrupted run %s (%s/%s)", id, spec.Experiment, spec.Dataset)
	}
	return resumed, nil
}

// readSpec recovers a run's grid spec from its directory: the
// spec.json the server wrote at admission, else the manifest.
func readSpec(dir string) (experiments.Spec, error) {
	if data, err := os.ReadFile(filepath.Join(dir, specFileName)); err == nil {
		var spec experiments.Spec
		if err := json.Unmarshal(data, &spec); err == nil {
			return spec, nil
		}
	}
	m, err := dispatch.ReadManifest(filepath.Join(dir, dispatch.ManifestName))
	if err != nil {
		return experiments.Spec{}, fmt.Errorf("no readable spec.json or manifest")
	}
	return m.Spec, nil
}

func readReport(dir string) *engine.Report {
	data, err := os.ReadFile(filepath.Join(dir, reportFileName))
	if err != nil {
		return nil
	}
	var rep engine.Report
	if json.Unmarshal(data, &rep) != nil {
		return nil
	}
	return &rep
}

// launch registers and starts (or resumes) a run's computation on the
// engine. Caller must not hold s.mu.
func (s *Server) launch(r *run) {
	s.mu.Lock()
	s.registerLocked(r)
	s.mu.Unlock()
	s.start(r)
}

// registerLocked publishes a run as executing and takes its admission
// slot; s.mu must be held. Registering under the same lock hold as the
// admitLocked check keeps a burst of distinct grids from over-admitting
// past MaxConcurrent.
func (s *Server) registerLocked(r *run) {
	r.state = stateRunning
	s.runs[r.id] = r
	s.active++
}

// start runs a registered run's computation; pair with registerLocked.
// A run directory that holds a manifest was planned before, so the run
// resumes from it and reuses its completed parts; any other run (new,
// or killed or failed before planning) runs fresh.
func (s *Server) start(r *run) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	r.cancel = cancel
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		var (
			out *experiments.Output
			rep *engine.Report
			err error
		)
		if _, serr := os.Stat(filepath.Join(r.dir, dispatch.ManifestName)); serr == nil {
			out, rep, err = s.eng.ResumeRun(ctx, r.dir, engine.RunOptions{})
		} else {
			out, rep, err = s.eng.Run(ctx, r.spec, engine.RunOptions{Dir: r.dir})
		}
		s.finish(r, out, rep, err)
	}()
}

// finish persists a run's output so a restart serves it without
// recomputation, releases its admission slot, and only then publishes
// the terminal state: a client that reads done or failed and submits at
// once must find the slot free.
func (s *Server) finish(r *run, out *experiments.Output, rep *engine.Report, err error) {
	if err == nil {
		if data, merr := json.Marshal(out); merr == nil {
			if werr := store.WriteFileAtomic(filepath.Join(r.dir, outputFileName), data); werr != nil {
				s.logf("serve: run %s: persisting output: %v", r.id, werr)
			}
		}
		if rep != nil {
			if data, merr := json.Marshal(rep); merr == nil {
				if werr := store.WriteFileAtomic(filepath.Join(r.dir, reportFileName), data); werr != nil {
					s.logf("serve: run %s: persisting report: %v", r.id, werr)
				}
			}
		}
	}
	s.mu.Lock()
	s.active--
	if err != nil {
		s.counters.failed++
	} else {
		s.counters.completed++
		if rep != nil {
			s.counters.cellsComputed += int64(rep.CellsComputed)
			s.counters.cellsCached += int64(rep.CellsCached)
			if rep.Degraded {
				s.counters.degraded++
			}
		}
	}
	if rep != nil {
		// Surfaced regardless of run outcome: rejects mean cache bytes
		// failed verification somewhere; a degraded cache means the run
		// lost its remote tier mid-flight.
		s.counters.storeRejected += rep.CacheStats.Rejected
		if rep.CacheDegraded {
			s.counters.cacheDegraded++
		}
	}
	s.mu.Unlock()
	r.mu.Lock()
	r.finished = time.Now()
	r.report = rep
	if err != nil {
		r.state = stateFailed
		r.errMsg = err.Error()
	} else {
		r.state = stateDone
		r.output = out
	}
	r.mu.Unlock()
	close(r.done)
	if err != nil {
		s.logf("serve: run %s failed: %v", r.id, err)
	} else if rep != nil && rep.Degraded {
		s.logf("serve: run %s done DEGRADED: pool lost, completed via local fallback, computed=%d cached=%d", r.id, rep.CellsComputed, rep.CellsCached)
	} else if rep != nil && rep.ServedFromCache {
		s.logf("serve: run %s done: fully cached, computed=0 cached=%d", r.id, rep.CellsCached)
	} else if rep != nil {
		s.logf("serve: run %s done: computed=%d cached=%d", r.id, rep.CellsComputed, rep.CellsCached)
	}
}

// Drain stops admitting new runs and cancels in-flight ones; their
// directories checkpoint (completed parts and cached cells survive),
// so they resume on the next daemon start. Blocks until every run
// goroutine has wound down or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.baseCancel()
	finished := make(chan struct{})
	go func() { s.wg.Wait(); close(finished) }()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain timed out: %w", ctx.Err())
	}
}

// Handler mounts the HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /runs", s.handleSubmit)
	mux.HandleFunc("GET /runs", s.handleList)
	mux.HandleFunc("GET /runs/{id}", s.handleStatus)
	mux.HandleFunc("GET /runs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /runs/{id}/table", s.handleTable)
	mux.HandleFunc("POST /pool", s.handlePool)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.cacheStore != nil {
		// The fleet-facing side of the shared cache: other machines set
		// -remote-store http://this-daemon/cache and read/write the same
		// verified entries this daemon's own runs use.
		mux.Handle("/cache/", http.StripPrefix("/cache", store.Handler(s.cacheStore)))
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	return mux
}

// runStatus is the wire shape of one run's status.
type runStatus struct {
	ID          string `json:"id"`
	Status      string `json:"status"`
	Error       string `json:"error,omitempty"`
	Experiment  string `json:"experiment"`
	Dataset     string `json:"dataset,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Backend     string `json:"backend,omitempty"`
	// Arch is the coordinator's GOARCH — the architecture the result
	// store keys cells on. A mixed-arch fleet shares no cache entries
	// across architectures (it silently recomputes), so surfacing the
	// arch lets operators spot that before blaming the cache.
	Arch string `json:"arch,omitempty"`
	// Deduped marks a submission that attached to an existing run
	// instead of starting a computation.
	Deduped bool `json:"deduped,omitempty"`
	// PartsDone/PartsTotal track shard envelopes landed in the run
	// directory (0/0 until the plan is written, and for cache-served
	// runs, which never materialize parts).
	PartsDone  int `json:"partsDone"`
	PartsTotal int `json:"partsTotal"`
	// CellsComputed/CellsCached split the grid by who did the work;
	// ServedFromCache marks a run the store answered entirely.
	CellsComputed   int  `json:"cellsComputed"`
	CellsCached     int  `json:"cellsCached"`
	ServedFromCache bool `json:"servedFromCache,omitempty"`
	// Degraded marks a run that lost its whole pool and completed via
	// the scheduler's local in-process fallback.
	Degraded bool `json:"degraded,omitempty"`
	// CacheRejected counts cache entries this run's coordinator rejected
	// at read verification (recomputed instead of served).
	CacheRejected int64 `json:"cacheRejected,omitempty"`
	// CacheDegraded marks a run whose tiered store lost its remote side
	// and finished on local cache and compute alone.
	CacheDegraded bool `json:"cacheDegraded,omitempty"`
}

func (s *Server) statusOf(r *run, deduped bool) runStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := runStatus{
		ID:         r.id,
		Status:     string(r.state),
		Error:      r.errMsg,
		Experiment: r.spec.Experiment,
		Dataset:    r.spec.Dataset,
		Deduped:    deduped,
	}
	if r.report != nil {
		st.Fingerprint = r.report.Fingerprint
		st.Backend = string(r.report.Backend)
		st.Arch = r.report.Arch
		st.CellsComputed = r.report.CellsComputed
		st.CellsCached = r.report.CellsCached
		st.ServedFromCache = r.report.ServedFromCache
		st.Degraded = r.report.Degraded
		st.CacheRejected = r.report.CacheStats.Rejected
		st.CacheDegraded = r.report.CacheDegraded
	}
	if r.shards == 0 {
		if m, err := dispatch.ReadManifest(filepath.Join(r.dir, dispatch.ManifestName)); err == nil {
			r.shards = m.Shards
		}
	}
	st.PartsTotal = r.shards
	for i := 0; i < r.shards; i++ {
		if _, err := os.Stat(filepath.Join(r.dir, dispatch.PartName(i))); err == nil {
			st.PartsDone++
		}
	}
	return st
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit admits a grid: dedupe onto an executing or completed
// run, reject when saturated or draining, otherwise start a fresh
// computation in its own resumable directory.
func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var spec experiments.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding grid spec: %v", err)
		return
	}
	id, err := RunID(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid grid spec: %v", err)
		return
	}

	s.mu.Lock()
	s.counters.submitted++
	if r, ok := s.runs[id]; ok {
		r.mu.Lock()
		state := r.state
		r.mu.Unlock()
		if state == stateRunning || state == stateDone {
			// The dedupe path: same fingerprint, one computation,
			// this client becomes another waiter.
			s.counters.deduped++
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, s.statusOf(r, true))
			return
		}
		// A failed run: admit a retry in the same directory, so
		// completed parts and cached cells are reused.
		if code, retryAfter, msg := s.admitLocked(); code != 0 {
			s.mu.Unlock()
			w.Header().Set("Retry-After", retryAfter)
			writeError(w, code, "%s", msg)
			return
		}
		fresh := &run{id: id, dir: r.dir, spec: spec, done: make(chan struct{}), started: time.Now()}
		s.registerLocked(fresh)
		s.mu.Unlock()
		s.start(fresh)
		s.logf("serve: run %s resubmitted after failure (%s/%s)", id, spec.Experiment, spec.Dataset)
		writeJSON(w, http.StatusAccepted, s.statusOf(fresh, false))
		return
	}
	if code, retryAfter, msg := s.admitLocked(); code != 0 {
		s.mu.Unlock()
		w.Header().Set("Retry-After", retryAfter)
		writeError(w, code, "%s", msg)
		return
	}
	// Reserve the id and the admission slot before releasing the lock:
	// a concurrent identical submission dedupes onto this run instead of
	// racing it, and a concurrent distinct grid sees the slot taken.
	r := &run{id: id, dir: filepath.Join(s.cfg.StateDir, id), spec: spec,
		done: make(chan struct{}), started: time.Now()}
	s.registerLocked(r)
	s.mu.Unlock()

	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		s.mu.Lock()
		delete(s.runs, id)
		s.active--
		s.mu.Unlock()
		writeError(w, http.StatusInternalServerError, "creating run dir: %v", err)
		return
	}
	if data, err := json.Marshal(spec); err == nil {
		if werr := store.WriteFileAtomic(filepath.Join(r.dir, specFileName), data); werr != nil {
			s.logf("serve: run %s: persisting spec: %v", id, werr)
		}
	}
	s.start(r)
	s.logf("serve: run %s admitted (%s/%s)", id, spec.Experiment, spec.Dataset)
	writeJSON(w, http.StatusAccepted, s.statusOf(r, false))
}

// Retry-After hints, in seconds, shared by every backpressure response
// the daemon sends — admission control's 429/503 and the
// still-executing table 409 — so clients observe one consistent
// backoff policy no matter which endpoint pushed back.
const (
	retryAfterBusy     = "1"  // transient: a run slot or result should free up shortly
	retryAfterDraining = "10" // the daemon is going away; retry against a restarted instance
)

// admitLocked applies admission control; s.mu must be held. A zero
// code admits; otherwise reply with the code and Retry-After hint.
func (s *Server) admitLocked() (code int, retryAfter, msg string) {
	if s.draining {
		return http.StatusServiceUnavailable, retryAfterDraining, "draining: not admitting new runs"
	}
	if s.active >= s.cfg.MaxConcurrent {
		return http.StatusTooManyRequests, retryAfterBusy,
			fmt.Sprintf("worker pool saturated: %d of %d run slots busy", s.active, s.cfg.MaxConcurrent)
	}
	return 0, "", ""
}

// retryHint computes the Retry-After value for transient backpressure
// outside admission control, with the same draining/busy distinction
// admitLocked applies to submissions.
func (s *Server) retryHint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return retryAfterDraining
	}
	return retryAfterBusy
}

func (s *Server) lookup(req *http.Request) (*run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[req.PathValue("id")]
	return r, ok
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	runs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	sort.Slice(runs, func(i, j int) bool { return runs[i].started.Before(runs[j].started) })
	statuses := make([]runStatus, len(runs))
	for i, r := range runs {
		statuses[i] = s.statusOf(r, false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"runs": statuses})
}

func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req)
	if !ok {
		writeError(w, http.StatusNotFound, "no run %q", req.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.statusOf(r, false))
}

// streamEvent is one line of the /runs/{id}/stream chunked response.
type streamEvent struct {
	Type string `json:"type"` // "shard" | "done" | "failed"
	// Shard fields (Type "shard"): plan position and its validated rows.
	Shard  int               `json:"shard,omitempty"`
	Shards int               `json:"shards,omitempty"`
	Cells  []int             `json:"cells,omitempty"`
	Rows   []json.RawMessage `json:"rows,omitempty"`
	// Terminal fields: the final status snapshot.
	Status *runStatus `json:"status,omitempty"`
}

// handleStream writes chunked JSON lines: one "shard" event per part
// envelope as it lands (validated against the manifest — forged or
// torn parts are never streamed), then a terminal "done"/"failed"
// event. Clients consuming partial rows see exactly the rows the merge
// will contain, as shards complete. A run the result store served
// whole wrote no part: once it is done, its rows are served again from
// the daemon's store (Run.CacheDir and Run.RemoteStore) before "done";
// if an entry was evicted in the meantime, the stream ends with "done"
// alone.
func (s *Server) handleStream(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req)
	if !ok {
		writeError(w, http.StatusNotFound, "no run %q", req.PathValue("id"))
		return
	}
	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)

	seen := map[int]bool{}
	emitLanded := func() {
		m, err := dispatch.ReadManifest(filepath.Join(r.dir, dispatch.ManifestName))
		if err != nil {
			return
		}
		for i := 0; i < m.Shards; i++ {
			if seen[i] {
				continue
			}
			path := filepath.Join(r.dir, dispatch.PartName(i))
			if dispatch.ValidatePart(path, m, i) != nil {
				continue
			}
			data, err := os.ReadFile(path)
			if err != nil {
				continue
			}
			env, err := shard.Decode(data)
			if err != nil {
				continue
			}
			seen[i] = true
			enc.Encode(streamEvent{Type: "shard", Shard: i, Shards: m.Shards,
				Cells: env.Indices, Rows: env.Rows})
			if flusher != nil {
				flusher.Flush()
			}
		}
	}

	ticker := time.NewTicker(streamInterval)
	defer ticker.Stop()
	for {
		emitLanded()
		select {
		case <-r.done:
			emitLanded()
			r.mu.Lock()
			rep := r.report
			r.mu.Unlock()
			if len(seen) == 0 && rep != nil && rep.ServedFromCache {
				for i, env := range s.cachedEnvelopes(r.spec) {
					enc.Encode(streamEvent{Type: "shard", Shard: i, Shards: env.Shards,
						Cells: env.Indices, Rows: env.Rows})
				}
			}
			st := s.statusOf(r, false)
			typ := "done"
			if st.Status == string(stateFailed) {
				typ = "failed"
			}
			enc.Encode(streamEvent{Type: typ, Status: &st})
			if flusher != nil {
				flusher.Flush()
			}
			return
		case <-req.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

// cachedEnvelopes serves a cache-served run's grid again from the
// daemon's store, through the cache-aware plan and ServeEnvelope path
// sched serves a warm grid with, or returns nil when any cell is no
// longer cached.
func (s *Server) cachedEnvelopes(spec experiments.Spec) []*shard.Envelope {
	st, err := store.OpenBackend(s.cfg.Run.CacheDir, s.cfg.Run.RemoteStore)
	if err != nil || st == nil {
		return nil
	}
	plan, err := experiments.PlanShardsCacheAware(spec, 1, st)
	if err != nil {
		return nil
	}
	envs := make([]*shard.Envelope, len(plan.Ranges))
	for i := range plan.Ranges {
		env, ok := plan.ServeEnvelope(i)
		if !ok {
			return nil
		}
		envs[i] = env
	}
	return envs
}

// handleTable renders the completed run's tables — the exact bytes the
// CLI's renderer prints for the same merged output.
func (s *Server) handleTable(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req)
	if !ok {
		writeError(w, http.StatusNotFound, "no run %q", req.PathValue("id"))
		return
	}
	r.mu.Lock()
	state, out, errMsg := r.state, r.output, r.errMsg
	r.mu.Unlock()
	switch state {
	case stateRunning:
		w.Header().Set("Retry-After", s.retryHint())
		writeError(w, http.StatusConflict, "run %s still executing", r.id)
	case stateFailed:
		writeError(w, http.StatusConflict, "run %s failed: %s", r.id, errMsg)
	default:
		var buf strings.Builder
		if err := report.RenderOutput(&buf, out); err != nil {
			writeError(w, http.StatusInternalServerError, "rendering: %v", err)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, buf.String())
	}
}

// poolRequest is the wire shape of a POST /pool membership change:
// hosts to (re)admit and host names to drain.
type poolRequest struct {
	Join  []poolJoin `json:"join,omitempty"`
	Leave []string   `json:"leave,omitempty"`
}

// poolJoin asks to (re)admit one host of the daemon's configured pool.
// The body names the host and may resize it; its transport and command
// always come from the configured definition, so a client of the admin
// endpoint can never make the daemon run a command the operator did not
// put in the hosts file.
type poolJoin struct {
	Name  string `json:"name"`
	Slots int    `json:"slots,omitempty"`
}

// handlePool applies a dynamic membership change to every executing
// run: joined hosts pick up work at the next scheduling round,
// departing hosts drain their in-flight assignments (no strikes) and
// receive no new work. The change is run-scoped, not persisted — runs
// started later begin from the configured hosts file again. A daemon
// without Hosts refuses every change: its runs subscribe to the same
// pool source, and this check alone keeps joins off its local pool.
func (s *Server) handlePool(w http.ResponseWriter, req *http.Request) {
	var pr poolRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pr); err != nil {
		writeError(w, http.StatusBadRequest, "decoding pool update: %v", err)
		return
	}
	if len(pr.Join) == 0 && len(pr.Leave) == 0 {
		writeError(w, http.StatusBadRequest, "pool update joins or leaves no hosts")
		return
	}
	if len(s.hostsFile) == 0 {
		writeError(w, http.StatusConflict, "daemon runs without a host pool; pool updates need -hosts")
		return
	}
	join, err := s.configuredJoins(pr.Join)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.pool.Update(sched.PoolUpdate{Join: join, Leave: pr.Leave})
	writeJSON(w, http.StatusOK, map[string]int{"joined": len(join), "left": len(pr.Leave)})
}

// configuredJoins resolves each requested join to the configured host
// of that name, with the requested slot count when one is given. A name
// outside the configured hosts, a name requested twice or a negative
// slot count rejects the whole request.
func (s *Server) configuredJoins(req []poolJoin) ([]sched.Host, error) {
	join := make([]sched.Host, 0, len(req))
	seen := map[string]bool{}
	for _, j := range req {
		if seen[j.Name] {
			return nil, fmt.Errorf("host %q joins twice", j.Name)
		}
		seen[j.Name] = true
		if j.Slots < 0 {
			return nil, fmt.Errorf("host %q: negative slots %d", j.Name, j.Slots)
		}
		i := slices.IndexFunc(s.hostsFile, func(h sched.Host) bool { return h.Name == j.Name })
		if i < 0 {
			return nil, fmt.Errorf("host %q is not in the daemon's hosts file", j.Name)
		}
		h := s.hostsFile[i]
		if j.Slots > 0 {
			h.Slots = j.Slots
		}
		join = append(join, h)
	}
	return join, nil
}

// handleMetrics hand-rolls the Prometheus text exposition format: run
// counters and queue state, the grid-cell cache split (the store's
// effective hit rate over served work), on-disk store usage, and
// per-host health from the scheduler's event stream.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	c := s.counters
	active, slots := s.active, s.cfg.MaxConcurrent
	draining := 0
	if s.draining {
		draining = 1
	}
	type hostRow struct {
		name string
		h    hostHealth
	}
	hostRows := make([]hostRow, 0, len(s.hosts))
	for name, h := range s.hosts {
		hostRows = append(hostRows, hostRow{name, *h})
	}
	s.mu.Unlock()
	sort.Slice(hostRows, func(i, j int) bool { return hostRows[i].name < hostRows[j].name })

	var b strings.Builder
	gauge := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("fairbench_runs_submitted_total", "Grid submissions accepted for consideration.", c.submitted)
	counter("fairbench_runs_deduped_total", "Submissions answered by an existing run of the same grid fingerprint.", c.deduped)
	counter("fairbench_runs_resumed_total", "Interrupted runs relaunched at daemon start.", c.resumed)
	counter("fairbench_runs_completed_total", "Runs finished successfully.", c.completed)
	counter("fairbench_runs_failed_total", "Runs that ended in error (resubmittable).", c.failed)
	counter("fairbench_cells_computed_total", "Grid cells computed by workers across completed runs.", c.cellsComputed)
	counter("fairbench_cells_cached_total", "Grid cells served from the result store across completed runs.", c.cellsCached)
	counter("fairbench_runs_degraded_total", "Runs that lost the whole pool and completed via local fallback.", c.degraded)
	counter("fairbench_store_rejected_total", "Cache entries that failed read verification across runs (rejected and recomputed).", c.storeRejected)
	counter("fairbench_store_remote_degraded_total", "Runs whose tiered store lost its remote side mid-run and finished local-only.", c.cacheDegraded)
	counter("fairbench_sched_speculations_total", "Speculative duplicate attempts launched against stragglers.", c.speculated)
	counter("fairbench_hosts_joined_total", "Hosts that joined the pool mid-run.", c.joined)
	counter("fairbench_hosts_departed_total", "Hosts drained out of the pool mid-run.", c.departed)
	gauge("fairbench_runs_active", "Runs currently executing.", active)
	gauge("fairbench_run_slots", "Admission limit on concurrently executing runs.", slots)
	gauge("fairbench_queue_depth", "Submissions executing or waiting (admission rejects beyond the slots, so this equals active runs).", active)
	gauge("fairbench_draining", "1 while the daemon is draining for shutdown.", draining)
	if s.cacheStore != nil {
		if stats, err := s.cacheStore.Stats(); err == nil {
			gauge("fairbench_store_entries", "Result-store entries on disk.", stats.Entries)
			gauge("fairbench_store_bytes", "Result-store bytes on disk.", stats.Bytes)
			gauge("fairbench_store_grids", "Distinct grid fingerprints in the result store.", stats.Fingerprints)
		}
		// The /cache/ protocol mount's traffic, as seen by this handle.
		cc := s.cacheStore.Counters()
		counter("fairbench_cache_http_hits_total", "Verified entries served over the /cache protocol.", cc.Hits)
		counter("fairbench_cache_http_misses_total", "Cache-protocol lookups with no entry to serve.", cc.Misses)
		counter("fairbench_cache_http_writes_total", "Entries stored via the /cache protocol.", cc.Writes)
		counter("fairbench_cache_http_rejected_total", "Stored entries that failed verification when read over the /cache protocol.", cc.Rejected)
	}
	for _, hr := range hostRows {
		up := 1
		if hr.h.excluded || hr.h.departed {
			up = 0
		}
		fmt.Fprintf(&b, "fairbench_host_up{host=%q} %d\n", hr.name, up)
		fmt.Fprintf(&b, "fairbench_host_ranges_completed_total{host=%q} %d\n", hr.name, hr.h.completed)
		fmt.Fprintf(&b, "fairbench_host_attempts_failed_total{host=%q} %d\n", hr.name, hr.h.failed)
		fmt.Fprintf(&b, "fairbench_host_speculations_total{host=%q} %d\n", hr.name, hr.h.speculated)
		if !hr.h.lastBeat.IsZero() {
			fmt.Fprintf(&b, "fairbench_host_heartbeat_age_seconds{host=%q} %.3f\n", hr.name, time.Since(hr.h.lastBeat).Seconds())
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, b.String())
}
