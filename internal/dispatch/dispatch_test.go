package dispatch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"fairbench/internal/experiments"
	"fairbench/internal/shard"
)

// TestMain doubles as the worker subprocess body: dispatch tests re-exec
// the test binary with FAIRBENCH_TEST_HELPER set, the same pattern the
// standard library uses for exec tests. "worker" runs a real shard via
// dispatch.Worker; "hang" writes its pid to a file and sleeps so the
// parent test can SIGKILL a genuinely live worker mid-run.
func TestMain(m *testing.M) {
	switch os.Getenv("FAIRBENCH_TEST_HELPER") {
	case "":
		os.Exit(m.Run())
	case "worker":
		shard, err := strconv.Atoi(os.Getenv("HELPER_SHARD"))
		if err == nil {
			err = Worker(os.Getenv("HELPER_MANIFEST"), shard, os.Getenv("HELPER_OUT"))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	case "hang":
		// Write the pid beside the pidfile and rename it into place, so
		// the parent's killer never reads an empty or partial pid.
		pidfile := os.Getenv("HELPER_PIDFILE")
		if err := os.WriteFile(pidfile+".tmp", []byte(strconv.Itoa(os.Getpid())), 0o644); err != nil {
			os.Exit(1)
		}
		if err := os.Rename(pidfile+".tmp", pidfile); err != nil {
			os.Exit(1)
		}
		time.Sleep(time.Minute) // the parent kills us long before this
		os.Exit(0)
	case "fail":
		fmt.Fprintln(os.Stderr, "injected worker failure")
		os.Exit(3)
	}
	os.Exit(2)
}

// helperSpawn re-execs this test binary in the given helper mode.
func helperSpawn(mode string, extraEnv ...string) SpawnFunc {
	return func(manifestPath string, shard int, outPath string) (*exec.Cmd, error) {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			"FAIRBENCH_TEST_HELPER="+mode,
			"HELPER_MANIFEST="+manifestPath,
			"HELPER_SHARD="+strconv.Itoa(shard),
			"HELPER_OUT="+outPath,
		)
		cmd.Env = append(cmd.Env, extraEnv...)
		return cmd, nil
	}
}

func smallSpec() experiments.Spec {
	return experiments.Spec{Experiment: "fig23", Dataset: "compas", N: 300, Seed: 6,
		Sizes: []int{60, 120}, Names: []string{"LR", "KamCal-DP"}}
}

// canonical marshals an output with its timing fields zeroed (dispatch
// only guarantees the metric payload).
func canonical(t *testing.T, out *experiments.Output) []byte {
	t.Helper()
	for _, pts := range out.Efficiency {
		for i := range pts {
			pts[i].Row.Seconds, pts[i].Row.Overhead = 0, 0
		}
	}
	for i := range out.Rows {
		out.Rows[i].Seconds, out.Rows[i].Overhead = 0, 0
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func serialReference(t *testing.T, spec experiments.Spec) []byte {
	t.Helper()
	g, err := experiments.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	return canonical(t, out)
}

// TestDispatchMatchesSerial: the plain happy path — K worker
// subprocesses, merged output byte-identical to a serial run.
func TestDispatchMatchesSerial(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	out, rep, err := Run(spec, Options{
		Dir: t.TempDir(), Shards: 3, Procs: 2, Spawn: helperSpawn("worker"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("dispatched output diverges from serial run")
	}
	if len(rep.Ran) != 3 || len(rep.Reused) != 0 || rep.CellsComputed != 4 || rep.CellsCached != 0 {
		t.Fatalf("report %+v", rep)
	}
}

// TestKillResumeMatchesSerial is the PR's acceptance gate: dispatch a
// grid, SIGKILL one worker while it is genuinely running, watch the
// dispatch fail resumably, resume it, and require the merged metric
// output to be byte-identical to a serial cold run. Then re-dispatch the
// same grid warm into a fresh directory and require zero cell
// computations, proven by the envelopes' cached provenance.
func TestKillResumeMatchesSerial(t *testing.T) {
	spec := experiments.Spec{Experiment: "fig7", Dataset: "german", N: 150, Seed: 5}
	want := serialReference(t, spec)
	dir, cacheDir := t.TempDir(), t.TempDir()
	pidfile := filepath.Join(t.TempDir(), "hang.pid")

	// The killer: SIGKILL the hanging worker as soon as it reports a pid.
	killed := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			data, err := os.ReadFile(pidfile)
			if err == nil {
				pid, err := strconv.Atoi(strings.TrimSpace(string(data)))
				if err != nil {
					killed <- err
					return
				}
				killed <- syscall.Kill(pid, syscall.SIGKILL)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		killed <- fmt.Errorf("no worker pid appeared to kill")
	}()

	// Shard 1's worker hangs (and gets killed); procs=1 keeps the
	// sequence deterministic: shard 0 completes, shard 1 dies, shard 2
	// completes, dispatch fails listing shard 1.
	normal := helperSpawn("worker")
	spawn := func(manifestPath string, shard int, outPath string) (*exec.Cmd, error) {
		if shard == 1 {
			return helperSpawn("hang", "HELPER_PIDFILE="+pidfile)(manifestPath, shard, outPath)
		}
		return normal(manifestPath, shard, outPath)
	}
	_, rep, err := Run(spec, Options{
		Dir: dir, Shards: 3, Procs: 1, Retries: 0, CacheDir: cacheDir, Spawn: spawn,
	})
	if err == nil {
		t.Fatal("dispatch succeeded despite a killed worker")
	}
	if ke := <-killed; ke != nil {
		t.Fatalf("failed to kill the worker: %v", ke)
	}
	if len(rep.Failed) != 1 || rep.Failed[0] != 1 {
		t.Fatalf("failed shards %v, want [1]", rep.Failed)
	}
	if !strings.Contains(err.Error(), "shard(s) 1 still missing") ||
		!strings.Contains(err.Error(), "resume") {
		t.Fatalf("error does not name the missing shard with a resume hint: %v", err)
	}
	for _, i := range []int{0, 2} {
		if _, err := os.Stat(filepath.Join(dir, PartName(i))); err != nil {
			t.Fatalf("surviving shard %d left no envelope: %v", i, err)
		}
	}

	// Resume completes only the missing shard and merges.
	out, rep, err := Resume(dir, Options{Procs: 2, Spawn: normal})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reused) != 2 || len(rep.Ran) != 1 || rep.Ran[0] != 1 {
		t.Fatalf("resume report %+v", rep)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("killed-and-resumed output diverges from serial run")
	}

	// Warm re-dispatch: every cell of every shard comes from the cache.
	out2, rep2, err := Run(spec, Options{
		Dir: t.TempDir(), Shards: 3, Procs: 2, CacheDir: cacheDir, Spawn: normal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CellsComputed != 0 {
		t.Fatalf("warm re-dispatch computed %d cells, want 0 (cached %d)",
			rep2.CellsComputed, rep2.CellsCached)
	}
	if rep2.CellsCached != rep.CellsCached+rep.CellsComputed {
		t.Fatalf("warm cached %d cells, want the full grid", rep2.CellsCached)
	}
	if !bytes.Equal(want, canonical(t, out2)) {
		t.Fatal("warm re-dispatch diverges from serial run")
	}
}

// TestRetriesRecoverFlakyWorker: a shard whose first attempt exits
// non-zero succeeds on the retry without failing the run.
func TestRetriesRecoverFlakyWorker(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	attempts := 0
	normal, fail := helperSpawn("worker"), helperSpawn("fail")
	spawn := func(manifestPath string, shard int, outPath string) (*exec.Cmd, error) {
		if shard == 0 {
			attempts++
			if attempts == 1 {
				return fail(manifestPath, shard, outPath)
			}
		}
		return normal(manifestPath, shard, outPath)
	}
	out, rep, err := Run(spec, Options{
		Dir: t.TempDir(), Shards: 2, Procs: 1, Retries: 1, Spawn: spawn,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts[0] != 2 {
		t.Fatalf("shard 0 took %d attempts, want 2", rep.Attempts[0])
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("retried output diverges from serial run")
	}
}

// TestWorkerLyingAboutSuccessIsCaught: an exit-0 worker that wrote no
// envelope must be treated as a failure, not silently merged around.
func TestWorkerLyingAboutSuccessIsCaught(t *testing.T) {
	spawn := func(string, int, string) (*exec.Cmd, error) {
		return exec.Command("true"), nil
	}
	_, _, err := Run(smallSpec(), Options{
		Dir: t.TempDir(), Shards: 2, Procs: 1, Spawn: spawn,
	})
	if err == nil || !strings.Contains(err.Error(), "exited 0 but") {
		t.Fatalf("want exit-0-without-envelope failure, got %v", err)
	}
}

func TestResumeRequiresManifest(t *testing.T) {
	if _, _, err := Resume(t.TempDir(), Options{}); err == nil ||
		!strings.Contains(err.Error(), "nothing to resume") {
		t.Fatalf("want nothing-to-resume error, got %v", err)
	}
}

// TestDirCannotMixRuns: dispatching a different grid into a live
// dispatch directory must be refused.
func TestDirCannotMixRuns(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := Run(smallSpec(), Options{Dir: dir, Shards: 2, Procs: 1, Spawn: helperSpawn("worker")}); err != nil {
		t.Fatal(err)
	}
	other := smallSpec()
	other.Seed = 99
	if _, _, err := Run(other, Options{Dir: dir, Shards: 2, Procs: 1, Spawn: helperSpawn("worker")}); err == nil ||
		!strings.Contains(err.Error(), "different run") {
		t.Fatalf("want different-run refusal, got %v", err)
	}
	// Same grid, conflicting cache directory: the manifest's cache is
	// part of the run's identity and cannot be switched silently.
	if _, _, err := Run(smallSpec(), Options{
		Dir: dir, Shards: 2, Procs: 1, CacheDir: t.TempDir(), Spawn: helperSpawn("worker"),
	}); err == nil || !strings.Contains(err.Error(), "cannot change") {
		t.Fatalf("want cache-dir conflict refusal, got %v", err)
	}
}

// TestValidatePartEnforcesPlanBoundaries: under an explicit range plan,
// a same-grid envelope cut on different boundaries must be rejected —
// otherwise a copied part from another run directory of the same grid
// would be reused forever and poison every merge attempt.
func TestValidatePartEnforcesPlanBoundaries(t *testing.T) {
	spec, err := smallSpec().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	g, err := experiments.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := g.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	n := g.Len()
	planA := []shard.Range{{Start: 0, End: 1}, {Start: 1, End: n}}
	planB := []shard.Range{{Start: 0, End: n - 1}, {Start: n - 1, End: n}}
	m := &Manifest{Version: ManifestVersion, Spec: spec, Shards: 2, Fingerprint: fp, Ranges: planA}

	dir := t.TempDir()
	write := func(plan []shard.Range, i int) string {
		env, err := experiments.RunShardPlanned(spec, plan, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		data, err := env.Encode()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, PartName(i))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Same grid, same fingerprint, same plan position — wrong boundaries.
	path := write(planB, 0)
	if err := ValidatePart(path, m, 0); err == nil ||
		!strings.Contains(err.Error(), "range") {
		t.Fatalf("foreign-boundary envelope accepted: %v", err)
	}
	// The genuine cut validates.
	if err := ValidatePart(write(planA, 0), m, 0); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidPartIsDiscardedAndRerun: a corrupt part file in the
// directory is moved aside and its shard re-executed.
func TestInvalidPartIsDiscardedAndRerun(t *testing.T) {
	spec := smallSpec()
	dir := t.TempDir()
	if _, _, err := Run(spec, Options{Dir: dir, Shards: 2, Procs: 1, Spawn: helperSpawn("worker")}); err != nil {
		t.Fatal(err)
	}
	part := filepath.Join(dir, PartName(1))
	if err := os.WriteFile(part, []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, rep, err := Resume(dir, Options{Procs: 1, Spawn: helperSpawn("worker")})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reused) != 1 || len(rep.Ran) != 1 || rep.Ran[0] != 1 {
		t.Fatalf("report %+v", rep)
	}
	if _, err := os.Stat(part + ".invalid"); err != nil {
		t.Fatal("invalid part not preserved aside")
	}
	if !bytes.Equal(serialReference(t, spec), canonical(t, out)) {
		t.Fatal("re-run output diverges from serial run")
	}
}

func TestBoundedBufferCapsAndMarks(t *testing.T) {
	b := NewBoundedBuffer(128)
	line := []byte("0123456789abcdef\n")
	var total int64
	for i := 0; i < 100; i++ {
		n, err := b.Write(line)
		if err != nil || n != len(line) {
			t.Fatalf("write %d: n=%d err=%v", i, n, err)
		}
		total += int64(n)
	}
	s := b.String()
	if int64(len(s)) >= total {
		t.Fatalf("buffer did not cap: holds %d of %d bytes written", len(s), total)
	}
	if b.Truncated() == 0 {
		t.Fatal("no bytes reported dropped after overflow")
	}
	if !strings.Contains(s, fmt.Sprintf("[%d stderr bytes dropped]", b.Truncated())) {
		t.Fatalf("truncation marker missing from %q", s)
	}
	if !strings.HasPrefix(s, "0123456789abcdef") {
		t.Fatalf("head of the stream lost: %q", s[:32])
	}
	if !strings.HasSuffix(strings.TrimRight(s, "\n"), "0123456789abcdef") {
		t.Fatalf("tail of the stream lost: %q", s[len(s)-32:])
	}
}

func TestBoundedBufferSmallWritesUntruncated(t *testing.T) {
	b := NewBoundedBuffer(1024)
	b.Write([]byte("only a few bytes"))
	if got := b.String(); got != "only a few bytes" {
		t.Fatalf("got %q", got)
	}
	if b.Truncated() != 0 {
		t.Fatalf("spurious truncation: %d", b.Truncated())
	}
}

// TestStderrTailKeepsTruncationMarker: when the capture was capped, the
// marker line must survive StderrTail's last-3-lines cut — a failure
// event that silently hid the fact that output was dropped would send
// operators debugging the wrong thing.
func TestStderrTailKeepsTruncationMarker(t *testing.T) {
	b := NewBoundedBuffer(256)
	for i := 0; i < 200; i++ {
		fmt.Fprintf(b, "noise line %d\n", i)
	}
	tail := StderrTail(b.String())
	if !strings.Contains(tail, "stderr bytes dropped") {
		t.Fatalf("marker cut from tail: %q", tail)
	}
	if !strings.Contains(tail, "199") {
		t.Fatalf("final lines cut from tail: %q", tail)
	}
}

// TestAcceptPartPromotesExactlyValidParts: AcceptPart is the single
// promotion point schedulers route acceptance through — a validating
// attempt file is renamed into place, an invalid one is refused with
// the part path untouched.
func TestAcceptPartPromotesExactlyValidParts(t *testing.T) {
	spec, err := smallSpec().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	g, err := experiments.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := g.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	plan := []shard.Range{{Start: 0, End: 1}, {Start: 1, End: g.Len()}}
	m := &Manifest{Version: ManifestVersion, Spec: spec, Shards: 2, Fingerprint: fp, Ranges: plan}
	dir := t.TempDir()
	partPath := filepath.Join(dir, PartName(0))

	bad := filepath.Join(dir, "part-000.json.attempt-0")
	if err := os.WriteFile(bad, []byte(`{"fault":"corrupt"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AcceptPart(bad, partPath, m, 0); err == nil {
		t.Fatal("corrupt attempt accepted")
	}
	if _, err := os.Stat(partPath); err == nil {
		t.Fatal("rejected attempt still materialized the part")
	}

	env, err := experiments.RunShardPlanned(spec, plan, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "part-000.json.attempt-1")
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AcceptPart(good, partPath, m, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(good); !os.IsNotExist(err) {
		t.Fatal("accepted attempt file was copied, not renamed")
	}
	if err := ValidatePart(partPath, m, 0); err != nil {
		t.Fatalf("promoted part does not validate: %v", err)
	}
}
