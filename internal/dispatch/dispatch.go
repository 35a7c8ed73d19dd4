// Package dispatch is the worker protocol every process-backed run
// speaks: the on-disk layout of a run directory, the worker body that
// fills it, and the acceptance gate that decides which envelopes count.
// The scheduler that drives it (internal/sched) lives one layer up.
//
// A run directory is the unit of resumability. It holds:
//
//	manifest.json   the normalized spec, grid fingerprint, range plan,
//	                and result-cache location — everything a worker (or
//	                a later resume) needs, with no other state
//	part-NNN.json   one validated envelope per completed shard
//
// Both are written atomically, so a coordinator or worker killed at any
// instant leaves either a complete file or nothing. A worker is spawned
// as `fairbench worker -manifest M -shard I -out O` (SelfExec), or over
// streams with `-manifest - -out -` (WorkerIO) when the coordinator
// ships the manifest to another machine. No envelope is merged without
// passing ValidatePart, and AcceptPart is the one place an attempt's
// output becomes a range's part. Combined with the result cache
// (internal/store), which workers consult cell by cell, an interrupted
// run resumes from whatever parts and cached cells exist, and its merged
// output is byte-identical (timing aside) to a serial cold run.
package dispatch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"fairbench/internal/experiments"
	"fairbench/internal/shard"
	"fairbench/internal/store"
)

// ManifestVersion is the manifest schema version; readers reject other
// versions rather than guessing.
const ManifestVersion = 1

// ManifestName is the manifest's file name inside a run directory.
const ManifestName = "manifest.json"

// Manifest is the durable identity of one directory-backed run. It pins the
// normalized spec and the fingerprint the grid materialized to when the
// run started, so a resume with a drifted build fails loudly instead of
// merging incompatible parts.
type Manifest struct {
	Version     int              `json:"version"`
	Spec        experiments.Spec `json:"spec"`
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
	// Ranges is the run's shard plan: worker i executes Ranges[i]. The
	// cache-aware scheduler (internal/sched) records its plan here so
	// that workers, resumes, and the merge all agree on the boundaries
	// it chose at plan time. Required: a manifest without one is refused.
	Ranges []shard.Range `json:"ranges"`
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

// ReadManifest loads and validates the manifest at path.
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
	if len(m.Ranges) == 0 {
		return nil, fmt.Errorf("dispatch: %s records no range plan (an older build wrote it); remove its directory, or schedule into a fresh one", label)
	}
	return &m, nil
}

// stderrBudget caps how much of one attempt's stderr the scheduler
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
// limit <= 0 uses the shared per-attempt budget.
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

func truncationMarker(n int64) string {
	return fmt.Sprintf("... [%d stderr bytes dropped] ...", n)
}

func isTruncationMarker(line string) bool {
	return strings.HasPrefix(line, "... [") && strings.HasSuffix(line, " stderr bytes dropped] ...")
}

// StderrTail formats the last few lines of a worker's stderr for
// inclusion in a failure message (internal/sched's transports append
// it to every failed attempt's error).
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
// and covers exactly range i of the manifest's plan — the single part
// acceptance gate: no envelope counts as done, anywhere, without
// passing it.
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
	case env.Shard != i || env.Shards != len(m.Ranges):
		return fmt.Errorf("%s is shard %d/%d, expected %d/%d", path, env.Shard, env.Shards, i, len(m.Ranges))
	}
	// The envelope must cover exactly Ranges[i]: a same-grid envelope cut
	// on different boundaries (say, copied from another run directory)
	// would otherwise be reused here and poison the merge with duplicate
	// or missing indices on every resume.
	r := m.Ranges[i]
	if len(env.Indices) != r.Len() {
		return fmt.Errorf("%s covers %d cells, the manifest's range %d is [%d,%d)", path, len(env.Indices), i, r.Start, r.End)
	}
	for j, idx := range env.Indices {
		if idx != r.Start+j {
			return fmt.Errorf("%s carries cell %d where the manifest's range %d expects %d — envelope cut on different boundaries", path, idx, i, r.Start+j)
		}
	}
	return nil
}

// AcceptPart atomically promotes an attempt file to the shard's part:
// the single point where an attempt's output becomes authoritative.
// The rename happens only after the envelope passes ValidatePart, and
// callers serialize acceptance per range (the scheduler accepts from
// its single event loop), so a losing or zombie attempt
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
// open the manifest's cache, run the shard's range of the manifest's
// plan, and return the encoded envelope.
func workerEnvelope(m *Manifest, shardIdx int) ([]byte, error) {
	if ms, err := strconv.Atoi(os.Getenv("FAIRBENCH_WORKER_DELAY_MS")); err == nil && ms > 0 {
		time.Sleep(time.Duration(ms) * time.Millisecond)
	}
	cache, err := store.OpenBackend(m.CacheDir, m.RemoteStore)
	if err != nil {
		return nil, err
	}
	env, err := experiments.RunShardPlanned(context.Background(), m.Spec, m.Ranges, shardIdx, cache)
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
// implements. internal/sched's local transport spawns with it unless
// given its own SpawnFunc.
func SelfExec(manifestPath string, shard int, outPath string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return exec.Command(exe, "worker",
		"-manifest", manifestPath, "-shard", strconv.Itoa(shard), "-out", outPath), nil
}
