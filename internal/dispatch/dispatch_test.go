package dispatch_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"fairbench/internal/dispatch"
	"fairbench/internal/experiments"
	"fairbench/internal/sched"
	"fairbench/internal/shard"
)

// TestMain doubles as the worker subprocess body: these tests re-exec
// the test binary with FAIRBENCH_TEST_HELPER set, the same pattern the
// standard library uses for exec tests. "worker" runs a real shard via
// Worker; "hang" writes its pid to a file and sleeps so the parent test
// can SIGKILL a genuinely live worker mid-run; "fail" exits non-zero
// with a line on stderr.
func TestMain(m *testing.M) {
	switch os.Getenv("FAIRBENCH_TEST_HELPER") {
	case "":
		os.Exit(m.Run())
	case "worker":
		shard, err := strconv.Atoi(os.Getenv("HELPER_SHARD"))
		if err == nil {
			err = dispatch.Worker(os.Getenv("HELPER_MANIFEST"), shard, os.Getenv("HELPER_OUT"))
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
func helperSpawn(mode string, extraEnv ...string) dispatch.SpawnFunc {
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

// canonical marshals an output with its timing fields zeroed (the
// protocol only guarantees the metric payload).
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

// onePool runs the protocol the way `fairbench dispatch -parallel 1` does:
// the scheduler over one local host with one slot, spawning workers
// through spawn, with no retry round unless retries says so.
func onePool(dir string, shards, retries int, cacheDir string, spawn dispatch.SpawnFunc) sched.Options {
	return sched.Options{
		Dir: dir, Shards: shards, Retries: retries, CacheDir: cacheDir,
		Hosts:      []sched.Host{{Name: "local", Slots: 1}},
		Transports: map[string]sched.Transport{"local": &sched.LocalExec{Spawn: spawn}},
	}
}

// TestKillResumeMatchesSerial: run a grid on a one-host pool, SIGKILL
// one worker while it is genuinely running, watch the run fail
// resumably, resume it, and require the merged metric output to be
// byte-identical to a serial cold run. Then re-run the same grid warm
// into a fresh directory and require zero cell computations, proven by
// the envelopes' cached provenance.
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

	// Range 1's worker hangs (and gets killed); one slot keeps the
	// sequence deterministic: range 0 completes, range 1 dies, range 2
	// completes, and with no retry round the run fails listing range 1.
	normal := helperSpawn("worker")
	spawn := func(manifestPath string, shard int, outPath string) (*exec.Cmd, error) {
		if shard == 1 {
			return helperSpawn("hang", "HELPER_PIDFILE="+pidfile)(manifestPath, shard, outPath)
		}
		return normal(manifestPath, shard, outPath)
	}
	_, rep, err := sched.Run(spec, onePool(dir, 3, 0, cacheDir, spawn))
	if err == nil {
		t.Fatal("run succeeded despite a killed worker")
	}
	if ke := <-killed; ke != nil {
		t.Fatalf("failed to kill the worker: %v", ke)
	}
	if !reflect.DeepEqual(rep.Failed, []int{1}) {
		t.Fatalf("failed ranges %v, want [1]", rep.Failed)
	}
	if !strings.Contains(err.Error(), "range(s) 1 still missing") ||
		!strings.Contains(err.Error(), "resume") {
		t.Fatalf("error does not name the missing range with a resume hint: %v", err)
	}
	for _, i := range []int{0, 2} {
		if _, err := os.Stat(filepath.Join(dir, dispatch.PartName(i))); err != nil {
			t.Fatalf("surviving range %d left no envelope: %v", i, err)
		}
	}

	// Resume completes only the missing range and merges.
	resume := onePool("", 0, 0, "", normal)
	resume.Hosts[0].Slots = 2
	out, rep, err := sched.Resume(dir, resume)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Reused, []int{0, 2}) || !reflect.DeepEqual(rep.Completed["local"], []int{1}) {
		t.Fatalf("resume reused %v and ran %v, want [0 2] and [1]", rep.Reused, rep.Completed)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("killed-and-resumed output diverges from serial run")
	}

	// Warm re-run: every cell of every range comes from the cache.
	out2, rep2, err := sched.Run(spec, onePool(t.TempDir(), 3, 0, cacheDir, normal))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CellsComputed != 0 {
		t.Fatalf("warm re-run computed %d cells, want 0 (cached %d)",
			rep2.CellsComputed, rep2.CellsCached)
	}
	if rep2.CellsCached != rep.CellsCached+rep.CellsComputed {
		t.Fatalf("warm cached %d cells, want the full grid", rep2.CellsCached)
	}
	if !bytes.Equal(want, canonical(t, out2)) {
		t.Fatal("warm re-run diverges from serial run")
	}
}

// TestRetriesRecoverFlakyWorker: with one retry round, a range whose
// first attempt exits non-zero succeeds on its second attempt on the
// same host without failing the run.
func TestRetriesRecoverFlakyWorker(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	var attempts atomic.Int32
	normal, fail := helperSpawn("worker"), helperSpawn("fail")
	spawn := func(manifestPath string, shard int, outPath string) (*exec.Cmd, error) {
		if shard == 0 && attempts.Add(1) == 1 {
			return fail(manifestPath, shard, outPath)
		}
		return normal(manifestPath, shard, outPath)
	}
	out, rep, err := sched.Run(spec, onePool(t.TempDir(), 2, 1, "", spawn))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts[0] != 2 {
		t.Fatalf("range 0 took %d attempts, want 2", rep.Attempts[0])
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("retried output diverges from serial run")
	}
}

// TestWorkerLyingAboutSuccessIsCaught: an exit-0 worker that wrote no
// envelope fails its range at the acceptance gate instead of being
// merged around.
func TestWorkerLyingAboutSuccessIsCaught(t *testing.T) {
	spawn := func(string, int, string) (*exec.Cmd, error) {
		return exec.Command("true"), nil
	}
	_, rep, err := sched.Run(smallSpec(), onePool(t.TempDir(), 2, 0, "", spawn))
	if err == nil || !strings.Contains(err.Error(), "produced an invalid part") {
		t.Fatalf("want exit-0-without-envelope failure, got %v", err)
	}
	if !reflect.DeepEqual(rep.Failed, []int{0, 1}) {
		t.Fatalf("failed ranges %v, want [0 1]", rep.Failed)
	}
}

// TestInvalidPartIsDiscardedAndRerun: a corrupt part file in the
// directory is moved aside and its range re-executed on resume.
func TestInvalidPartIsDiscardedAndRerun(t *testing.T) {
	spec := smallSpec()
	dir := t.TempDir()
	if _, _, err := sched.Run(spec, onePool(dir, 2, 0, "", helperSpawn("worker"))); err != nil {
		t.Fatal(err)
	}
	part := filepath.Join(dir, dispatch.PartName(1))
	if err := os.WriteFile(part, []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, rep, err := sched.Resume(dir, onePool("", 0, 0, "", helperSpawn("worker")))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Reused, []int{0}) || !reflect.DeepEqual(rep.Completed["local"], []int{1}) {
		t.Fatalf("resume reused %v and ran %v, want [0] and [1]", rep.Reused, rep.Completed)
	}
	if _, err := os.Stat(part + ".invalid"); err != nil {
		t.Fatal("invalid part not preserved aside")
	}
	if !bytes.Equal(serialReference(t, spec), canonical(t, out)) {
		t.Fatal("re-run output diverges from serial run")
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
	m := &dispatch.Manifest{Version: dispatch.ManifestVersion, Spec: spec, Shards: 2, Fingerprint: fp, Ranges: planA}

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
		path := filepath.Join(dir, dispatch.PartName(i))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Same grid, same fingerprint, same plan position — wrong boundaries.
	path := write(planB, 0)
	if err := dispatch.ValidatePart(path, m, 0); err == nil ||
		!strings.Contains(err.Error(), "range") {
		t.Fatalf("foreign-boundary envelope accepted: %v", err)
	}
	// The genuine cut validates.
	if err := dispatch.ValidatePart(write(planA, 0), m, 0); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedBufferCapsAndMarks(t *testing.T) {
	b := dispatch.NewBoundedBuffer(128)
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
	// The marker counts the dropped bytes: with it cut out, what the
	// buffer holds and what it dropped add up to what was written.
	var dropped int64
	i := strings.Index(s, "\n... [")
	if i < 0 {
		t.Fatalf("truncation marker missing from %q", s)
	}
	if _, err := fmt.Sscanf(s[i:], "\n... [%d stderr bytes dropped] ...", &dropped); err != nil || dropped == 0 {
		t.Fatalf("truncation marker in %q does not count the dropped bytes (%v)", s, err)
	}
	marker := fmt.Sprintf("\n... [%d stderr bytes dropped] ...\n", dropped)
	if held := int64(len(s) - len(marker)); held+dropped != total {
		t.Fatalf("buffer holds %d bytes and the marker counts %d dropped, of %d written", held, dropped, total)
	}
	if !strings.HasPrefix(s, "0123456789abcdef") {
		t.Fatalf("head of the stream lost: %q", s[:32])
	}
	if !strings.HasSuffix(strings.TrimRight(s, "\n"), "0123456789abcdef") {
		t.Fatalf("tail of the stream lost: %q", s[len(s)-32:])
	}
}

func TestBoundedBufferSmallWritesUntruncated(t *testing.T) {
	b := dispatch.NewBoundedBuffer(1024)
	b.Write([]byte("only a few bytes"))
	if got := b.String(); got != "only a few bytes" {
		t.Fatalf("got %q", got)
	}
}

// TestStderrTailKeepsTruncationMarker: when the capture was capped, the
// marker line must survive StderrTail's last-3-lines cut — a failure
// event that silently hid the fact that output was dropped would send
// operators debugging the wrong thing.
func TestStderrTailKeepsTruncationMarker(t *testing.T) {
	b := dispatch.NewBoundedBuffer(256)
	for i := 0; i < 200; i++ {
		fmt.Fprintf(b, "noise line %d\n", i)
	}
	tail := dispatch.StderrTail(b.String())
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
	m := &dispatch.Manifest{Version: dispatch.ManifestVersion, Spec: spec, Shards: 2, Fingerprint: fp, Ranges: plan}
	dir := t.TempDir()
	partPath := filepath.Join(dir, dispatch.PartName(0))

	bad := filepath.Join(dir, "part-000.json.attempt-0")
	if err := os.WriteFile(bad, []byte(`{"fault":"corrupt"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := dispatch.AcceptPart(bad, partPath, m, 0); err == nil {
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
	if err := dispatch.AcceptPart(good, partPath, m, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(good); !os.IsNotExist(err) {
		t.Fatal("accepted attempt file was copied, not renamed")
	}
	if err := dispatch.ValidatePart(partPath, m, 0); err != nil {
		t.Fatalf("promoted part does not validate: %v", err)
	}
}
