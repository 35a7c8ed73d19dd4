// Package dispatch schedules the shards of one experiment grid onto
// worker subprocesses on the local machine and merges their envelopes —
// the coordinator layer between internal/shard's passive envelopes and
// a future multi-host (SSH/k8s) scheduler, which will reuse the same
// manifest/part-file protocol with a different Spawn.
//
// A dispatch directory is the unit of resumability. It holds:
//
//	manifest.json   the normalized spec, shard count, grid fingerprint,
//	                and result-cache directory — everything a worker (or
//	                a later resume) needs, with no other state
//	part-NNN.json   one validated envelope per completed shard
//
// Both are written atomically, so a dispatcher or worker killed at any
// instant leaves either a complete file or nothing. Run therefore never
// distinguishes "first attempt" from "resume after a crash": it scans
// the directory, reuses every envelope that still validates against the
// manifest, and runs only the shards that are missing. Combined with the
// result cache (internal/store) — which the workers consult cell by cell
// — an interrupted run resumes from whatever partial envelopes and
// cached cells exist instead of starting over, and the merged output is
// byte-identical (timing aside) to a serial cold run.
package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fairbench/internal/experiments"
	"fairbench/internal/runner"
	"fairbench/internal/shard"
	"fairbench/internal/store"
)

// ManifestVersion is the manifest schema version; readers reject other
// versions rather than guessing.
const ManifestVersion = 1

// ManifestName is the manifest's file name inside a dispatch directory.
const ManifestName = "manifest.json"

// Manifest is the durable identity of one dispatched run. It pins the
// normalized spec and the fingerprint the grid materialized to when the
// run started, so a resume with a drifted build fails loudly instead of
// merging incompatible parts.
type Manifest struct {
	Version     int              `json:"version"`
	Spec        experiments.Spec `json:"spec"`
	Shards      int              `json:"shards"`
	Fingerprint string           `json:"fingerprint"`
	// CacheDir is the result-cache directory workers consult, empty for
	// cacheless runs. Recorded here so resume uses the same cache.
	CacheDir string `json:"cacheDir,omitempty"`
	// RemoteStore is the shared HTTP cache URL workers layer behind
	// CacheDir (see store.OpenBackend), empty for local-only runs.
	// Recorded here so every worker — including ones spawned on other
	// machines by transports that ship the manifest — writes its cells
	// through to the same fleet-wide cache a resume would read.
	RemoteStore string `json:"remoteStore,omitempty"`
	// Ranges, when present, is an explicit shard plan: worker i executes
	// Ranges[i] instead of slice i of the uniform aligned split. The
	// cache-aware scheduler (internal/sched) records its plan here so
	// that workers, resumes, and the merge all agree on the boundaries
	// it chose at plan time; absent on plain dispatch manifests. When
	// present it must hold exactly Shards ranges.
	Ranges []shard.Range `json:"ranges,omitempty"`
}

// Write atomically persists the manifest to path.
func (m *Manifest) Write(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := store.WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("dispatch: %w", err)
	}
	return nil
}

// PartName returns the envelope file name for shard i.
func PartName(i int) string { return fmt.Sprintf("part-%03d.json", i) }

// SpawnFunc builds the command for one worker attempt. The command must
// run the equivalent of Worker(manifestPath, shard, outPath): load the
// manifest, execute the shard (consulting the manifest's cache), and
// atomically write the envelope to outPath. The default spawner re-execs
// the current binary as `<self> worker -manifest M -shard I -out O`,
// which the fairbench CLI implements; a library embedder whose binary
// has no such subcommand must supply its own.
type SpawnFunc func(manifestPath string, shard int, outPath string) (*exec.Cmd, error)

// Options configures one dispatched run.
type Options struct {
	// Dir is the dispatch directory (created if missing). Required.
	Dir string
	// Shards is the k of the k-way split. Defaults to Procs.
	Shards int
	// Procs caps how many worker subprocesses run concurrently.
	// Defaults to one per CPU (runtime.GOMAXPROCS(0)).
	Procs int
	// Retries is how many times a failed shard is re-spawned before the
	// run gives up on it (0 = one attempt only). Other shards keep
	// running either way; a shard that exhausts its attempts is reported
	// missing so a later resume can pick it up.
	Retries int
	// CacheDir, when set, is recorded in the manifest and consulted by
	// every worker, making retries and resumes incremental at cell
	// granularity.
	CacheDir string
	// RemoteStore, when set, is the shared HTTP cache URL recorded in
	// the manifest: workers open a tiered store (CacheDir in front, this
	// URL behind) so computed cells land in the fleet-wide cache and
	// cells computed elsewhere are served instead of recomputed.
	RemoteStore string
	// Spawn overrides how worker subprocesses are launched (see
	// SpawnFunc). Nil uses the self-exec default.
	Spawn SpawnFunc
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Report describes what a dispatched run actually did — the provenance a
// caller needs to verify claims like "the warm re-run computed nothing".
type Report struct {
	Fingerprint string
	Shards      int
	// Reused lists shards whose envelope already existed in the
	// directory and validated against the manifest.
	Reused []int
	// Ran lists shards executed by worker subprocesses this invocation.
	Ran []int
	// Attempts maps each shard in Ran to how many spawns it took.
	Attempts map[int]int
	// Failed lists shards still missing after retries were exhausted.
	Failed []int
	// CellsComputed and CellsCached split the grid's cells by who did
	// the work, summed over all envelopes (reused and fresh): cached
	// cells were served from the result store, computed ones were
	// evaluated by some worker this run or a previous one.
	CellsComputed, CellsCached int
}

// Run dispatches the spec's grid as opts.Shards shard subprocesses, at
// most opts.Procs at a time, into opts.Dir, and merges the completed
// envelope set into driver-native output. Envelopes already present and
// valid are reused, so calling Run again on an interrupted directory
// resumes it. On failure the returned error names the shards still
// missing; the directory remains resumable.
func Run(spec experiments.Spec, opts Options) (*experiments.Output, *Report, error) {
	return RunContext(context.Background(), spec, opts)
}

// RunContext is Run under a cancellation context. Once ctx is done no new
// worker attempt starts, every live worker subprocess is killed, and the
// call returns an error wrapping ctx.Err(). Completed envelopes stay on
// disk and workers checkpoint through the result cache, so a cancelled
// dispatch is indistinguishable from a crashed one: Resume picks it up.
func RunContext(ctx context.Context, spec experiments.Spec, opts Options) (*experiments.Output, *Report, error) {
	m, manifestPath, err := prepare(spec, &opts)
	if err != nil {
		return nil, nil, err
	}
	return run(ctx, m, manifestPath, opts)
}

// Resume continues the dispatched run recorded in dir: it loads the
// manifest, verifies the grid still materializes to the recorded
// fingerprint, and re-enters the same scan-spawn-merge loop — shards
// with valid envelopes are kept, the rest run. Procs/Retries/Spawn/Log
// come from opts; the spec, shard count, and cache directory always come
// from the manifest.
func Resume(dir string, opts Options) (*experiments.Output, *Report, error) {
	return ResumeContext(context.Background(), dir, opts)
}

// ResumeContext is Resume under a cancellation context (see RunContext
// for the cancellation semantics).
func ResumeContext(ctx context.Context, dir string, opts Options) (*experiments.Output, *Report, error) {
	manifestPath := filepath.Join(dir, ManifestName)
	m, err := ReadManifest(manifestPath)
	if err != nil {
		return nil, nil, fmt.Errorf("dispatch: %s: %w — nothing to resume (run dispatch first)", dir, err)
	}
	opts.Dir, opts.Shards, opts.CacheDir, opts.RemoteStore = dir, m.Shards, m.CacheDir, m.RemoteStore
	if err := verifyFingerprint(m); err != nil {
		return nil, nil, err
	}
	return run(ctx, m, manifestPath, opts)
}

// prepare normalizes the spec, fills option defaults, and creates or
// re-validates the dispatch directory and its manifest.
func prepare(spec experiments.Spec, opts *Options) (*Manifest, string, error) {
	if opts.Dir == "" {
		return nil, "", fmt.Errorf("dispatch: no dispatch directory")
	}
	if opts.Procs <= 0 {
		opts.Procs = runtime.GOMAXPROCS(0)
	}
	if opts.Shards <= 0 {
		opts.Shards = opts.Procs
	}
	ns, err := spec.Normalize()
	if err != nil {
		return nil, "", err
	}
	g, err := experiments.Open(ns)
	if err != nil {
		return nil, "", err
	}
	fp, err := g.Fingerprint()
	if err != nil {
		return nil, "", err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, "", fmt.Errorf("dispatch: %w", err)
	}
	m := &Manifest{
		Version:     ManifestVersion,
		Spec:        ns,
		Shards:      opts.Shards,
		Fingerprint: fp,
		CacheDir:    opts.CacheDir,
		RemoteStore: opts.RemoteStore,
	}
	manifestPath := filepath.Join(opts.Dir, ManifestName)
	if existing, err := ReadManifest(manifestPath); err == nil {
		// The directory already holds a run: it must be this run, or we
		// would silently mix envelopes of different grids.
		if existing.Fingerprint != fp || existing.Shards != opts.Shards {
			return nil, "", fmt.Errorf("dispatch: %s already holds a different run (fingerprint %.12s…, %d shards); use a fresh directory or resume that run",
				opts.Dir, existing.Fingerprint, existing.Shards)
		}
		// The manifest's cache directory is part of the run's identity —
		// workers and resumes must all see one cache — so a conflicting
		// caller-supplied CacheDir is an error, not a silent override.
		if opts.CacheDir != "" && opts.CacheDir != existing.CacheDir {
			return nil, "", fmt.Errorf("dispatch: %s was dispatched with cache directory %q; re-dispatch cannot change it to %q — use a fresh dispatch directory",
				opts.Dir, existing.CacheDir, opts.CacheDir)
		}
		// Same rule for the shared remote cache URL: one run, one store.
		if opts.RemoteStore != "" && opts.RemoteStore != existing.RemoteStore {
			return nil, "", fmt.Errorf("dispatch: %s was dispatched with remote store %q; re-dispatch cannot change it to %q — use a fresh dispatch directory",
				opts.Dir, existing.RemoteStore, opts.RemoteStore)
		}
		m = existing
		opts.CacheDir = existing.CacheDir
		opts.RemoteStore = existing.RemoteStore
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, "", err
	} else if err := m.Write(manifestPath); err != nil {
		return nil, "", err
	}
	return m, manifestPath, nil
}

// ReadManifest loads and validates the manifest at path. It is exported
// for coordinators layered on the dispatch directory protocol (the
// multi-host scheduler in internal/sched reads and writes the same
// manifests, so its directories stay resumable by Resume).
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeManifest(data, path)
}

func decodeManifest(data []byte, label string) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("dispatch: decoding %s: %w", label, err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("dispatch: %s has manifest version %d, want %d", label, m.Version, ManifestVersion)
	}
	if m.Shards < 1 {
		return nil, fmt.Errorf("dispatch: %s records %d shards", label, m.Shards)
	}
	if len(m.Ranges) > 0 && len(m.Ranges) != m.Shards {
		return nil, fmt.Errorf("dispatch: %s records %d shards but a %d-range plan", label, m.Shards, len(m.Ranges))
	}
	return &m, nil
}

// verifyFingerprint re-materializes the manifest's grid and checks it
// still fingerprints as recorded — the guard against resuming with a
// build whose grid definition drifted.
func verifyFingerprint(m *Manifest) error {
	g, err := experiments.Open(m.Spec)
	if err != nil {
		return err
	}
	fp, err := g.Fingerprint()
	if err != nil {
		return err
	}
	if fp != m.Fingerprint {
		return fmt.Errorf("dispatch: manifest fingerprint %.12s… but this build materializes %.12s… — grid definition drift; re-dispatch into a fresh directory",
			m.Fingerprint, fp)
	}
	return nil
}

// run is the shared scan → spawn → merge loop behind Run and Resume.
func run(ctx context.Context, m *Manifest, manifestPath string, opts Options) (*experiments.Output, *Report, error) {
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}
	if opts.Procs <= 0 {
		opts.Procs = runtime.GOMAXPROCS(0)
	}
	spawn := opts.Spawn
	if spawn == nil {
		spawn = SelfExec
	}
	rep := &Report{
		Fingerprint: m.Fingerprint,
		Shards:      m.Shards,
		Attempts:    map[int]int{},
	}

	// Scan: classify every shard as done (valid envelope on disk) or
	// pending. Invalid part files are moved aside so the shard re-runs.
	var pending []int
	for i := 0; i < m.Shards; i++ {
		path := filepath.Join(opts.Dir, PartName(i))
		switch err := ValidatePart(path, m, i); {
		case err == nil:
			rep.Reused = append(rep.Reused, i)
		case errors.Is(err, fs.ErrNotExist):
			pending = append(pending, i)
		default:
			bad := path + ".invalid"
			os.Rename(path, bad)
			logf("dispatch: shard %d: discarding invalid envelope (%v), moved to %s", i, err, bad)
			pending = append(pending, i)
		}
	}
	logf("dispatch: %d/%d shards already complete in %s, running %d (procs=%d)",
		len(rep.Reused), m.Shards, opts.Dir, len(pending), opts.Procs)

	// Spawn: the runner pool gives bounded concurrency and collect-all
	// error semantics — one dead shard never stops the others, so a
	// failed run leaves the directory as complete as possible for resume.
	var mu sync.Mutex
	type shardErr struct {
		shard int
		err   error
	}
	var failures []shardErr
	_, runErr := runner.Run(len(pending), runner.Options{Workers: opts.Procs}, func(j int) (struct{}, error) {
		i := pending[j]
		attempts, err := runWorker(ctx, spawn, manifestPath, m, opts.Dir, i, opts.Retries, logf)
		mu.Lock()
		rep.Ran = append(rep.Ran, i)
		rep.Attempts[i] = attempts
		if err != nil {
			failures = append(failures, shardErr{i, err})
		}
		mu.Unlock()
		return struct{}{}, nil // failures are collected above, per shard
	})
	if runErr != nil {
		return nil, rep, runErr
	}
	sort.Ints(rep.Ran)
	if len(failures) > 0 {
		sort.Slice(failures, func(a, b int) bool { return failures[a].shard < failures[b].shard })
		var idxs, msgs []string
		for _, f := range failures {
			rep.Failed = append(rep.Failed, f.shard)
			idxs = append(idxs, strconv.Itoa(f.shard))
			msgs = append(msgs, fmt.Sprintf("shard %d: %v", f.shard, f.err))
		}
		// A cancelled run reports the cancellation itself (errors.Is-able)
		// rather than a retry exhaustion it never attempted.
		if err := ctx.Err(); err != nil {
			return nil, rep, fmt.Errorf("dispatch: cancelled with shard(s) %s still missing — `fairbench resume -dir %s` will pick up from the %d completed shard(s): %w",
				strings.Join(idxs, ", "), opts.Dir, m.Shards-len(failures), err)
		}
		return nil, rep, fmt.Errorf("dispatch: shard(s) %s still missing after %d attempt(s) each — `fairbench resume -dir %s` will pick up from the %d completed shard(s)\n%s",
			strings.Join(idxs, ", "), opts.Retries+1, opts.Dir, m.Shards-len(failures), strings.Join(msgs, "\n"))
	}

	// Merge: read every envelope back through the named path so any
	// residual inconsistency is attributed to its file.
	envs := make([]*shard.Envelope, m.Shards)
	names := make([]string, m.Shards)
	for i := 0; i < m.Shards; i++ {
		path := filepath.Join(opts.Dir, PartName(i))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, rep, fmt.Errorf("dispatch: %w", err)
		}
		if envs[i], err = shard.Decode(data); err != nil {
			return nil, rep, fmt.Errorf("dispatch: %s: %w", path, err)
		}
		names[i] = path
		rep.CellsCached += len(envs[i].Cached)
		rep.CellsComputed += len(envs[i].Indices) - len(envs[i].Cached)
	}
	out, err := experiments.MergeShardsNamed(envs, names)
	if err != nil {
		return nil, rep, err
	}
	logf("dispatch: merged %d shards (cells computed=%d cached=%d)",
		m.Shards, rep.CellsComputed, rep.CellsCached)
	return out, rep, nil
}

// runWorker executes one shard via subprocess, retrying up to retries
// extra times, and returns how many attempts it took. A done ctx stops
// the retry loop: cancellation is not a worker failure to retry around.
func runWorker(ctx context.Context, spawn SpawnFunc, manifestPath string, m *Manifest, dir string, i, retries int,
	logf func(string, ...any)) (attempts int, err error) {
	outPath := filepath.Join(dir, PartName(i))
	for attempts = 1; ; attempts++ {
		err = oneAttempt(ctx, spawn, manifestPath, m, outPath, i)
		if err == nil {
			return attempts, nil
		}
		if attempts > retries || ctx.Err() != nil {
			return attempts, err
		}
		logf("dispatch: shard %d attempt %d failed (%v), retrying", i, attempts, err)
	}
}

func oneAttempt(ctx context.Context, spawn SpawnFunc, manifestPath string, m *Manifest, outPath string, i int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	os.Remove(outPath) // stale/invalid leftovers must not mask a failure
	cmd, err := spawn(manifestPath, i, outPath)
	if err != nil {
		return err
	}
	stderr := NewBoundedBuffer(0)
	if cmd.Stderr == nil {
		cmd.Stderr = stderr
	}
	if err := runCmd(ctx, cmd); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("worker: %w%s", err, StderrTail(stderr.String()))
	}
	// Trust nothing about the exit status alone: the envelope must exist
	// and validate against the manifest before the shard counts as done.
	if err := ValidatePart(outPath, m, i); err != nil {
		return fmt.Errorf("worker exited 0 but %w", err)
	}
	return nil
}

// runCmd runs cmd to completion, killing the process (and waiting for it)
// when ctx is cancelled first — the dispatcher must never return with live
// worker subprocesses behind it.
func runCmd(ctx context.Context, cmd *exec.Cmd) error {
	if err := cmd.Start(); err != nil {
		return err
	}
	if ctx.Done() == nil {
		return cmd.Wait()
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		cmd.Process.Kill()
		<-done
		return ctx.Err()
	}
}

// stderrBudget caps how much of one attempt's stderr a coordinator
// retains (head + tail around a truncation marker). Without a cap, a
// log-spamming worker balloons the coordinator's memory — one capture
// per attempt, many attempts per run.
const stderrBudget = 8 << 10

// BoundedBuffer is an io.Writer that retains the head and tail of a
// stream within a fixed budget: the first half fills once, the second
// half is a sliding window over the most recent bytes, and everything
// squeezed out between them is counted. String() reassembles the
// capture with a truncation marker naming the dropped byte count, so a
// failure message always shows how much evidence is missing. Safe for
// concurrent use (exec.Cmd writes from its own copier goroutine).
type BoundedBuffer struct {
	mu      sync.Mutex
	limit   int
	head    []byte
	tail    []byte
	dropped int64
}

// NewBoundedBuffer returns a buffer retaining at most limit bytes;
// limit <= 0 uses the coordinators' shared per-attempt budget.
func NewBoundedBuffer(limit int) *BoundedBuffer {
	if limit <= 0 {
		limit = stderrBudget
	}
	if limit < 64 {
		limit = 64
	}
	return &BoundedBuffer{limit: limit}
}

// Write implements io.Writer; it never fails and never grows the
// retained capture past the budget.
func (b *BoundedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(p)
	half := b.limit / 2
	if room := half - len(b.head); room > 0 {
		take := min(room, len(p))
		b.head = append(b.head, p[:take]...)
		p = p[take:]
	}
	if len(p) == 0 {
		return n, nil
	}
	if len(p) >= half {
		b.dropped += int64(len(b.tail)) + int64(len(p)-half)
		b.tail = append(b.tail[:0], p[len(p)-half:]...)
		return n, nil
	}
	if overflow := len(b.tail) + len(p) - half; overflow > 0 {
		b.dropped += int64(overflow)
		b.tail = append(b.tail[:0], b.tail[overflow:]...)
	}
	b.tail = append(b.tail, p...)
	return n, nil
}

// String returns the bounded capture; when bytes were dropped, a marker
// line between head and tail records how many.
func (b *BoundedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dropped == 0 {
		return string(b.head) + string(b.tail)
	}
	return string(b.head) + "\n" + truncationMarker(b.dropped) + "\n" + string(b.tail)
}

// Truncated reports how many bytes the budget squeezed out so far.
func (b *BoundedBuffer) Truncated() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

func truncationMarker(n int64) string {
	return fmt.Sprintf("... [%d stderr bytes dropped] ...", n)
}

func isTruncationMarker(line string) bool {
	return strings.HasPrefix(line, "... [") && strings.HasSuffix(line, " stderr bytes dropped] ...")
}

// StderrTail formats the last few lines of a worker's stderr for
// inclusion in a failure message — shared by every coordinator that
// spawns workers (this package's dispatcher, internal/sched's
// transports).
func StderrTail(s string) string {
	s = strings.TrimSpace(s)
	if s == "" {
		return ""
	}
	lines := strings.Split(s, "\n")
	if len(lines) > 3 {
		kept := lines[len(lines)-3:]
		// A bounded capture's truncation marker must survive the cut: it
		// is the only evidence the worker wrote more than what is shown.
		for _, l := range lines[:len(lines)-3] {
			if isTruncationMarker(l) {
				kept = append([]string{l}, kept...)
				break
			}
		}
		lines = kept
	}
	return "; stderr: " + strings.Join(lines, " | ")
}

// ValidatePart checks that the envelope at path is complete, decodes,
// and belongs to shard i of the manifest's grid — the single part
// acceptance gate shared by the local dispatcher and the multi-host
// scheduler: no envelope counts as done, anywhere, without passing it.
func ValidatePart(path string, m *Manifest, i int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	env, err := shard.Decode(data)
	if err != nil {
		return err
	}
	switch {
	case env.Fingerprint != m.Fingerprint:
		return fmt.Errorf("%s carries fingerprint %.12s…, manifest has %.12s…", path, env.Fingerprint, m.Fingerprint)
	case env.Shard != i || env.Shards != m.Shards:
		return fmt.Errorf("%s is shard %d/%d, expected %d/%d", path, env.Shard, env.Shards, i, m.Shards)
	}
	// Under an explicit plan the envelope must cover exactly Ranges[i]:
	// a same-grid envelope cut on different boundaries (say, copied from
	// another run directory) would otherwise be reused here and poison
	// the merge with duplicate or missing indices on every resume.
	if len(m.Ranges) > 0 {
		r := m.Ranges[i]
		if len(env.Indices) != r.Len() {
			return fmt.Errorf("%s covers %d cells, the manifest's range %d is [%d,%d)", path, len(env.Indices), i, r.Start, r.End)
		}
		for j, idx := range env.Indices {
			if idx != r.Start+j {
				return fmt.Errorf("%s carries cell %d where the manifest's range %d expects %d — envelope cut on different boundaries", path, idx, i, r.Start+j)
			}
		}
	}
	return nil
}

// AcceptPart atomically promotes an attempt file to the shard's part:
// the single point where an attempt's output becomes authoritative.
// The rename happens only after the envelope passes ValidatePart, and
// callers serialize acceptance per range (the multi-host scheduler
// accepts from its single event loop), so a losing or zombie attempt
// can never replace an already-accepted part — a caller that finds the
// range already decided discards the attempt file instead of calling
// this.
func AcceptPart(attemptPath, partPath string, m *Manifest, i int) error {
	if err := ValidatePart(attemptPath, m, i); err != nil {
		return err
	}
	return os.Rename(attemptPath, partPath)
}

// Worker is the subprocess body shared by the CLI's `fairbench worker`
// command and any custom spawner: it loads the manifest, opens the
// manifest's result cache (if any), runs the shard, and atomically
// writes the envelope — so a worker killed at any instant leaves either
// a complete part file or none.
//
// The FAIRBENCH_WORKER_DELAY_MS environment variable, when set, pauses
// the worker before it starts computing. It exists for the
// kill-and-resume end-to-end tests, which need a deterministic window in
// which to SIGKILL a live worker; production runs leave it unset.
func Worker(manifestPath string, shardIdx int, outPath string) error {
	m, err := ReadManifest(manifestPath)
	if err != nil {
		return err
	}
	data, err := workerEnvelope(m, shardIdx)
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(outPath, data)
}

// WorkerIO is Worker over streams: the manifest is read from r and the
// encoded envelope written to w. This is the remote-transport protocol
// (`fairbench worker -manifest - -shard I -out -`): a scheduler can pipe
// the manifest to a worker binary on another machine — over ssh or any
// command runner — and collect the envelope from its stdout, with no
// shared filesystem between them.
func WorkerIO(r io.Reader, shardIdx int, w io.Writer) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("dispatch: reading streamed manifest: %w", err)
	}
	m, err := decodeManifest(data, "streamed manifest")
	if err != nil {
		return err
	}
	env, err := workerEnvelope(m, shardIdx)
	if err != nil {
		return err
	}
	_, err = w.Write(env)
	return err
}

// workerEnvelope is the shared worker body: honor the test-hook delay,
// open the manifest's cache, run the shard — through the manifest's
// explicit range plan when it has one — and return the encoded envelope.
func workerEnvelope(m *Manifest, shardIdx int) ([]byte, error) {
	if ms, err := strconv.Atoi(os.Getenv("FAIRBENCH_WORKER_DELAY_MS")); err == nil && ms > 0 {
		time.Sleep(time.Duration(ms) * time.Millisecond)
	}
	cache, err := store.OpenBackend(m.CacheDir, m.RemoteStore)
	if err != nil {
		return nil, err
	}
	var env *shard.Envelope
	if len(m.Ranges) > 0 {
		env, err = experiments.RunShardPlanned(m.Spec, m.Ranges, shardIdx, cache)
	} else {
		env, err = experiments.RunShardContext(context.Background(), m.Spec, shardIdx, m.Shards, cache, 0)
	}
	if err != nil {
		return nil, err
	}
	if env.Fingerprint != m.Fingerprint {
		return nil, fmt.Errorf("dispatch: this build materializes fingerprint %.12s…, manifest has %.12s… — grid definition drift", env.Fingerprint, m.Fingerprint)
	}
	return env.Encode()
}

// SelfExec is the default SpawnFunc: it launches the current
// executable's `worker` subcommand, the protocol the fairbench CLI
// implements. Exported so other coordinators (internal/sched's local
// transport) spawn workers identically.
func SelfExec(manifestPath string, shard int, outPath string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return exec.Command(exe, "worker",
		"-manifest", manifestPath, "-shard", strconv.Itoa(shard), "-out", outPath), nil
}
