package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"fairbench/internal/dispatch"
	"fairbench/internal/experiments"
	"fairbench/internal/store"
)

// TestMain doubles as the worker subprocess body, the same re-exec
// pattern internal/dispatch's tests use. "worker" runs a real shard via
// dispatch.Worker; "workerio" is the remote-transport protocol (manifest
// on stdin, envelope on stdout); "killself" SIGKILLs itself immediately —
// a genuinely killed host process, with no killer goroutine to race;
// "fail" exits non-zero with a line on stderr.
func TestMain(m *testing.M) {
	switch os.Getenv("FAIRBENCH_TEST_HELPER") {
	case "":
		os.Exit(m.Run())
	case "worker":
		idx, err := strconv.Atoi(os.Getenv("HELPER_SHARD"))
		if err == nil {
			err = dispatch.Worker(os.Getenv("HELPER_MANIFEST"), idx, os.Getenv("HELPER_OUT"))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	case "workerio":
		idx, err := strconv.Atoi(os.Getenv("HELPER_SHARD"))
		if err == nil {
			err = dispatch.WorkerIO(os.Stdin, idx, os.Stdout)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	case "killself":
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
		time.Sleep(time.Minute) // unreachable
		os.Exit(0)
	case "fail":
		fmt.Fprintln(os.Stderr, "injected worker failure")
		os.Exit(3)
	}
	os.Exit(2)
}

// helperSpawn re-execs this test binary in the given helper mode, in
// dispatch.SpawnFunc's shape for LocalExec.
func helperSpawn(mode string) dispatch.SpawnFunc {
	return func(manifestPath string, shard int, outPath string) (*exec.Cmd, error) {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			"FAIRBENCH_TEST_HELPER="+mode,
			"HELPER_MANIFEST="+manifestPath,
			"HELPER_SHARD="+strconv.Itoa(shard),
			"HELPER_OUT="+outPath,
		)
		return cmd, nil
	}
}

// workerTransport is a LocalExec whose subprocesses run real shards.
func workerTransport() *LocalExec { return &LocalExec{Spawn: helperSpawn("worker")} }

func smallSpec() experiments.Spec {
	return experiments.Spec{Experiment: "fig23", Dataset: "compas", N: 300, Seed: 6,
		Sizes: []int{60, 120}, Names: []string{"LR", "KamCal-DP"}}
}

// canonical marshals an output with its timing fields zeroed (the
// scheduler only guarantees the metric payload).
func canonical(t testing.TB, out *experiments.Output) []byte {
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

func serialReference(t testing.TB, spec experiments.Spec) []byte {
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

// TestSchedMatchesSerial: the happy path — two local hosts with uneven
// slots, merged output byte-identical to a serial run.
func TestSchedMatchesSerial(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	out, rep, err := Run(spec, Options{
		Dir:        t.TempDir(),
		Shards:     3,
		Hosts:      []Host{{Name: "a", Slots: 2}, {Name: "b"}},
		Transports: map[string]Transport{"local": workerTransport()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("scheduled output diverges from serial run")
	}
	if len(rep.Failed) != 0 || len(rep.Reused) != 0 || len(rep.Skipped) != 0 {
		t.Fatalf("report %+v", rep)
	}
	delivered := 0
	for _, idxs := range rep.Completed {
		delivered += len(idxs)
	}
	if delivered != len(rep.Ranges) {
		t.Fatalf("hosts delivered %d of %d ranges", delivered, len(rep.Ranges))
	}
	if rep.CellsComputed != 4 || rep.CellsCached != 0 {
		t.Fatalf("cells computed=%d cached=%d", rep.CellsComputed, rep.CellsCached)
	}
}

// TestSchedHostKillConvergesToSerial: chaos scenario 1 — every worker
// process the "doomed" host starts is SIGKILLed. The scheduler must fail
// those attempts, exclude the host, reassign its ranges to the survivor,
// and still converge to the serial bytes.
func TestSchedHostKillConvergesToSerial(t *testing.T) {
	spec := experiments.Spec{Experiment: "fig7", Dataset: "german", N: 150, Seed: 5}
	want := serialReference(t, spec)
	out, rep, err := Run(spec, Options{
		Dir:    t.TempDir(),
		Shards: 3,
		Hosts:  []Host{{Name: "doomed", Slots: 2, Transport: "kill"}, {Name: "ok"}},
		Transports: map[string]Transport{
			"kill":  &LocalExec{Spawn: helperSpawn("killself")},
			"local": workerTransport(),
		},
		MaxHostFailures: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("output after a SIGKILLed host diverges from serial run")
	}
	if len(rep.Excluded) != 1 || rep.Excluded[0] != "doomed" {
		t.Fatalf("excluded %v, want [doomed]", rep.Excluded)
	}
	if len(rep.Completed["doomed"]) != 0 {
		t.Fatalf("the killed host completed %v", rep.Completed["doomed"])
	}
	if len(rep.Completed["ok"]) != len(rep.Ranges) {
		t.Fatalf("survivor completed %v of %d ranges", rep.Completed["ok"], len(rep.Ranges))
	}
}

// hangTransport accepts assignments and then goes silent: it never
// beats, never writes a part, and returns only when the scheduler
// cancels it — a wedged ssh session.
type hangTransport struct{}

func (hangTransport) Run(ctx context.Context, _ Host, _ Assignment, _ func()) error {
	<-ctx.Done()
	return ctx.Err()
}

// TestSchedHangHeartbeatReassigns: chaos scenario 2 — the "stuck" host
// hangs past the heartbeat deadline. The scheduler must declare it dead
// on the FIRST lapse (the default MaxHostFailures budget is for ordinary
// failures, not heartbeat death), cancel its assignments, reassign them,
// and converge to serial bytes.
func TestSchedHangHeartbeatReassigns(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	start := time.Now()
	out, rep, err := Run(spec, Options{
		Dir:    t.TempDir(),
		Shards: 3,
		Hosts:  []Host{{Name: "stuck", Slots: 2, Transport: "hang"}, {Name: "ok"}},
		Transports: map[string]Transport{
			"hang":  hangTransport{},
			"local": workerTransport(),
		},
		HeartbeatTimeout: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("output after a hung host diverges from serial run")
	}
	if len(rep.Excluded) != 1 || rep.Excluded[0] != "stuck" {
		t.Fatalf("excluded %v, want [stuck]", rep.Excluded)
	}
	if len(rep.Completed["ok"]) != len(rep.Ranges) {
		t.Fatalf("survivor completed %v of %d ranges", rep.Completed["ok"], len(rep.Ranges))
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("hang detection took %s — the deadline did not fire", elapsed)
	}
}

// corruptTransport reports success after writing garbage where the
// envelope belongs — a host with a bad disk or a truncating network.
type corruptTransport struct{}

func (corruptTransport) Run(_ context.Context, _ Host, asn Assignment, beat func()) error {
	beat()
	return os.WriteFile(asn.OutPath, []byte(`{"version":1,"garbage":`), 0o644)
}

// TestSchedCorruptPartRejected: chaos scenario 3 — a host emits corrupt
// parts and claims success. The shared validation gate must reject every
// one of them (they never reach a part-NNN.json), the host must be
// excluded, and the output must still match serial.
func TestSchedCorruptPartRejected(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	dir := t.TempDir()
	out, rep, err := Run(spec, Options{
		Dir:    dir,
		Shards: 2,
		Hosts:  []Host{{Name: "liar", Slots: 2, Transport: "corrupt"}, {Name: "ok"}},
		Transports: map[string]Transport{
			"corrupt": corruptTransport{},
			"local":   workerTransport(),
		},
		MaxHostFailures: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("output after corrupt parts diverges from serial run")
	}
	if len(rep.Excluded) != 1 || rep.Excluded[0] != "liar" {
		t.Fatalf("excluded %v, want [liar]", rep.Excluded)
	}
	// No attempt-scoped debris may survive acceptance or rejection.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); filepath.Ext(name) != ".json" {
			t.Fatalf("stray file %s left in the sched directory", name)
		}
	}
}

// flapTransport fails every odd call and delegates every even one — a
// host flapping on and off.
type flapTransport struct {
	inner Transport
	mu    sync.Mutex
	calls int
}

func (f *flapTransport) Run(ctx context.Context, h Host, asn Assignment, beat func()) error {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.mu.Unlock()
	if n%2 == 1 {
		return fmt.Errorf("injected flap (call %d)", n)
	}
	return f.inner.Run(ctx, h, asn, beat)
}

// TestSchedFlappingHostConverges: chaos scenario 4 — the only host flaps
// on and off. Retry rounds must re-offer failed ranges until the flap
// lets them through, and the output must match serial.
func TestSchedFlappingHostConverges(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	flap := &flapTransport{inner: workerTransport()}
	out, rep, err := Run(spec, Options{
		Dir:             t.TempDir(),
		Shards:          2,
		Hosts:           []Host{{Name: "flappy", Transport: "flap"}},
		Transports:      map[string]Transport{"flap": flap},
		Retries:         4,
		MaxHostFailures: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("output from a flapping host diverges from serial run")
	}
	retried := false
	for _, attempts := range rep.Attempts {
		if attempts > 1 {
			retried = true
		}
	}
	if !retried {
		t.Fatalf("flap never forced a retry: attempts %v (calls %d)", rep.Attempts, flap.calls)
	}
}

// forbidTransport fails the test if the scheduler assigns anything —
// warm-cache runs must never reach a host.
type forbidTransport struct{ t *testing.T }

func (f forbidTransport) Run(_ context.Context, h Host, asn Assignment, _ func()) error {
	f.t.Errorf("transport invoked (host %s, range %d) on a fully-cached run", h.Name, asn.Range)
	return fmt.Errorf("forbidden")
}

// TestSchedWarmCacheServesEverything: chaos scenario 5 — after a cold
// scheduled run populates the cache, a fresh warm run must plan zero
// assigned ranges, never invoke a transport, report computed=0, and
// still produce the serial bytes.
func TestSchedWarmCacheServesEverything(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	cacheDir := t.TempDir()
	_, repCold, err := Run(spec, Options{
		Dir:        t.TempDir(),
		Shards:     2,
		CacheDir:   cacheDir,
		Hosts:      []Host{{Name: "a"}, {Name: "b"}},
		Transports: map[string]Transport{"local": workerTransport()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if repCold.CellsComputed != 4 {
		t.Fatalf("cold run computed %d cells, want 4", repCold.CellsComputed)
	}

	out, rep, err := Run(spec, Options{
		Dir:        t.TempDir(),
		Shards:     2,
		CacheDir:   cacheDir,
		Hosts:      []Host{{Name: "a"}, {Name: "b"}},
		Transports: map[string]Transport{"local": forbidTransport{t}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("warm scheduled run diverges from serial run")
	}
	if rep.CellsComputed != 0 {
		t.Fatalf("warm run computed %d cells, want 0 (cached %d)", rep.CellsComputed, rep.CellsCached)
	}
	if len(rep.Skipped) != len(rep.Ranges) || len(rep.Ranges) != 1 {
		t.Fatalf("warm plan: %d ranges, %d skipped — want one fully-cached range", len(rep.Ranges), len(rep.Skipped))
	}
}

// TestSchedRemoteTransportRoundTrip drives the ssh-shaped path: the
// manifest travels over stdin to a worker binary run through a command
// runner, and the envelope comes back over stdout — no shared
// filesystem. The fake runner re-execs this binary the way an ssh
// session would exec a remote one.
func TestSchedRemoteTransportRoundTrip(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	remote := &RemoteExec{Runner: func(_ context.Context, _ Host, args []string) (*exec.Cmd, error) {
		idx := ""
		for i, a := range args {
			if a == "-shard" && i+1 < len(args) {
				idx = args[i+1]
			}
		}
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "FAIRBENCH_TEST_HELPER=workerio", "HELPER_SHARD="+idx)
		return cmd, nil
	}}
	out, rep, err := Run(spec, Options{
		Dir:        t.TempDir(),
		Shards:     2,
		Hosts:      []Host{{Name: "far", Slots: 2, Transport: "remote"}},
		Transports: map[string]Transport{"remote": remote},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("remote-transport output diverges from serial run")
	}
	if len(rep.Completed["far"]) != len(rep.Ranges) {
		t.Fatalf("remote host completed %v of %d ranges", rep.Completed["far"], len(rep.Ranges))
	}
}

// instantInner serves precomputed (real, validating) envelopes with no
// worker subprocess: chaos tests that exercise scheduling policy —
// speculation timing, membership changes, fuzzed interleavings — use it
// so wall-clock measures the scheduler, not shard computation.
type instantInner struct {
	parts map[int][]byte
}

func newInstantInner(t testing.TB, spec experiments.Spec, shards int) *instantInner {
	t.Helper()
	ns, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := experiments.PlanShardsCacheAware(ns, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	parts := map[int][]byte{}
	for i := range plan.Ranges {
		env, err := experiments.RunShardPlanned(context.Background(), ns, plan.Ranges, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if parts[i], err = env.Encode(); err != nil {
			t.Fatal(err)
		}
	}
	return &instantInner{parts: parts}
}

func (tr *instantInner) Run(_ context.Context, _ Host, asn Assignment, beat func()) error {
	beat()
	data, ok := tr.parts[asn.Range]
	if !ok {
		return fmt.Errorf("no precomputed part for range %d", asn.Range)
	}
	return store.WriteFileAtomic(asn.OutPath, data)
}

// signalTransport closes ch on its first Run call — the deterministic
// "the run is past Subscribe and executing" hook the membership tests
// key their pool updates on.
type signalTransport struct {
	inner Transport
	once  sync.Once
	ch    chan struct{}
}

func (s *signalTransport) Run(ctx context.Context, h Host, asn Assignment, beat func()) error {
	s.once.Do(func() { close(s.ch) })
	return s.inner.Run(ctx, h, asn, beat)
}

// TestSchedStragglerSpeculation: chaos scenario 6 — one host stalls
// every attempt far past the median (a straggler, heartbeating the whole
// time). With Speculate the range is duplicated onto the idle fast host,
// the duplicate's part is accepted, the straggling loser is cancelled
// WITHOUT a strike, and the run beats the stall; without Speculate the
// run must sit out the full delay. Both converge to serial bytes.
func TestSchedStragglerSpeculation(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	inner := newInstantInner(t, spec, 3)
	const stall = 1500 * time.Millisecond
	slowScript := func(host Host, rangeIdx, n int) Fault {
		if host.Name == "slow" {
			return Fault{Delay: stall}
		}
		return Fault{}
	}
	opts := func(dir string, speculate bool) Options {
		return Options{
			Dir:    dir,
			Shards: 3,
			Hosts:  []Host{{Name: "slow"}, {Name: "fast", Slots: 2}},
			Transports: map[string]Transport{
				"local": &FaultTransport{Inner: inner, Script: slowScript},
			},
			Speculate:        speculate,
			SpeculateFloor:   100 * time.Millisecond,
			HeartbeatTimeout: 500 * time.Millisecond,
		}
	}

	start := time.Now()
	out, rep, err := Run(spec, opts(t.TempDir(), true))
	withSpec := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("speculated output diverges from serial run")
	}
	if len(rep.Speculated) == 0 {
		t.Fatal("no range was speculated despite a scripted straggler")
	}
	if len(rep.Excluded) != 0 {
		t.Fatalf("speculation loser was struck: excluded %v", rep.Excluded)
	}
	if withSpec >= stall {
		t.Fatalf("speculated run took %v — it waited out the %v straggler instead of racing it", withSpec, stall)
	}

	start = time.Now()
	out, rep, err = Run(spec, opts(t.TempDir(), false))
	withoutSpec := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("unspeculated output diverges from serial run")
	}
	if len(rep.Speculated) != 0 {
		t.Fatalf("speculation disabled but rep.Speculated = %v", rep.Speculated)
	}
	if withoutSpec < stall {
		t.Fatalf("unspeculated run took %v < the %v stall — the straggler script did not stall", withoutSpec, stall)
	}
	if withSpec >= withoutSpec {
		t.Fatalf("speculation did not speed up the straggler run: with=%v without=%v", withSpec, withoutSpec)
	}
}

// TestSchedJoinMidRun: chaos scenario 7 — the pool starts with one slow
// host; a second host joins through a PoolSource while the first attempt
// is in flight and must pick up queued ranges at the next round.
func TestSchedJoinMidRun(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	inner := newInstantInner(t, spec, 4)
	started := make(chan struct{})
	busy := &signalTransport{ch: started, inner: &FaultTransport{Inner: inner, Script: func(Host, int, int) Fault {
		return Fault{Delay: 400 * time.Millisecond}
	}}}
	pool := NewPoolChan()
	go func() {
		<-started
		pool.Join(Host{Name: "helper", Slots: 2, Transport: "instant"})
	}()
	out, rep, err := Run(spec, Options{
		Dir:    t.TempDir(),
		Shards: 4,
		Hosts:  []Host{{Name: "busy", Transport: "busy"}},
		Transports: map[string]Transport{
			"busy":    busy,
			"instant": inner,
		},
		PoolSource:       pool,
		HeartbeatTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("output after a mid-run join diverges from serial run")
	}
	if len(rep.Joined) != 1 || rep.Joined[0] != "helper" {
		t.Fatalf("joined %v, want [helper]", rep.Joined)
	}
	if len(rep.Completed["helper"]) == 0 {
		t.Fatalf("joined host completed nothing: %+v", rep.Completed)
	}
}

// TestSchedShrinkThenGrow: chaos scenario 8 — a host leaves gracefully
// mid-run (its in-flight attempt drains, unstruck) and later re-joins,
// earning work again. The run completes with serial bytes throughout.
func TestSchedShrinkThenGrow(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	inner := newInstantInner(t, spec, 4)
	started := make(chan struct{})
	slow := &signalTransport{ch: started, inner: &FaultTransport{Inner: inner, Script: func(Host, int, int) Fault {
		return Fault{Delay: 250 * time.Millisecond}
	}}}
	pool := NewPoolChan()
	go func() {
		<-started
		pool.Leave("b")
		time.Sleep(300 * time.Millisecond)
		pool.Join(Host{Name: "b", Transport: "slow"})
	}()
	out, rep, err := Run(spec, Options{
		Dir:              t.TempDir(),
		Shards:           4,
		Hosts:            []Host{{Name: "a", Transport: "slow"}, {Name: "b", Transport: "slow"}},
		Transports:       map[string]Transport{"slow": slow},
		PoolSource:       pool,
		HeartbeatTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("output after shrink-then-grow diverges from serial run")
	}
	if len(rep.Departed) != 1 || rep.Departed[0] != "b" {
		t.Fatalf("departed %v, want [b]", rep.Departed)
	}
	if len(rep.Joined) != 1 || rep.Joined[0] != "b" {
		t.Fatalf("joined %v, want [b]", rep.Joined)
	}
	if len(rep.Excluded) != 0 {
		t.Fatalf("graceful leave must not strike or exclude: %v", rep.Excluded)
	}
}

// gateTransport holds its first attempt inside Run until the test
// releases it: it closes entered, waits for release, heartbeats, then
// waits for joined before handing over to inner. The heartbeat lands
// while the scheduler may be applying a pool update, with nothing
// ordering the two, so the race detector sees any shared host field
// the attempt reads.
type gateTransport struct {
	inner                    Transport
	once                     sync.Once
	entered, release, joined chan struct{}
}

func (g *gateTransport) Run(ctx context.Context, h Host, asn Assignment, beat func()) error {
	first := false
	g.once.Do(func() { first = true; close(g.entered) })
	if first {
		<-g.release
		beat()
		<-g.joined
	}
	return g.inner.Run(ctx, h, asn, beat)
}

// TestSchedRejoinDuringBlockedAttempt: a host rejoins (its definition
// refreshed) while one of its attempts is blocked inside the transport.
// The attempt must keep the host it was launched on; under -race this
// fails every run if the attempt reads the host's live fields.
func TestSchedRejoinDuringBlockedAttempt(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	gate := &gateTransport{
		inner:   newInstantInner(t, spec, 1),
		entered: make(chan struct{}), release: make(chan struct{}), joined: make(chan struct{}),
	}
	var joinedOnce sync.Once
	pool := NewPoolChan()
	go func() {
		<-gate.entered
		pool.Join(Host{Name: "a", Slots: 2, Transport: "gate"})
		close(gate.release)
	}()
	out, rep, err := Run(spec, Options{
		Dir:              t.TempDir(),
		Shards:           1,
		Hosts:            []Host{{Name: "a", Transport: "gate"}},
		Transports:       map[string]Transport{"gate": gate},
		PoolSource:       pool,
		HeartbeatTimeout: 30 * time.Second,
		OnEvent: func(ev Event) {
			if ev.Type == EventJoined {
				joinedOnce.Do(func() { close(gate.joined) })
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("output after a mid-attempt rejoin diverges from serial run")
	}
	if len(rep.Joined) != 1 || rep.Joined[0] != "a" {
		t.Fatalf("joined %v, want [a]", rep.Joined)
	}
}

// TestSchedAllHostsLostLocalFallback: chaos scenario 9 — every host
// fails until excluded. With LocalFallback the coordinator computes the
// leftovers in-process: the run COMPLETES, byte-identical to serial,
// and the report marks it Degraded with the fallback ranges named.
func TestSchedAllHostsLostLocalFallback(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	out, rep, err := Run(spec, Options{
		Dir:             t.TempDir(),
		Shards:          2,
		Hosts:           []Host{{Name: "dead"}},
		Transports:      map[string]Transport{"local": failTransport{}},
		MaxHostFailures: 1,
		Retries:         -1,
		Backoff:         -1,
		LocalFallback:   true,
	})
	if err != nil {
		t.Fatalf("local fallback should complete the run, got %v", err)
	}
	if !rep.Degraded {
		t.Fatal("report not marked Degraded after a whole-pool loss")
	}
	if len(rep.Fallback) != 2 {
		t.Fatalf("fallback ranges %v, want both", rep.Fallback)
	}
	if len(rep.Failed) != 0 {
		t.Fatalf("failed ranges %v after fallback", rep.Failed)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("degraded-fallback output diverges from serial run")
	}
}

// cancelOnPut passes every request through to the store handler, and
// cancels the run on the first PUT: the first cell a run computes and
// writes through cancels it.
type cancelOnPut struct {
	inner  http.Handler
	cancel context.CancelFunc
}

func (c cancelOnPut) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPut {
		c.cancel()
	}
	c.inner.ServeHTTP(w, r)
}

// TestSchedCancelStopsLocalFallback: a run cancelled while its local
// fallback computes fails with the cancellation instead of completing
// Degraded. Every part the fallback delivered stays, and Resume reuses
// them and completes the directory byte-identical to serial.
func TestSchedCancelStopsLocalFallback(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	serverDisk, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := httptest.NewServer(cancelOnPut{inner: store.Handler(serverDisk), cancel: cancel})
	defer srv.Close()

	dir := t.TempDir()
	_, rep, err := RunContext(ctx, spec, Options{
		Dir:             dir,
		Shards:          2,
		RemoteStore:     srv.URL,
		Hosts:           []Host{{Name: "dead"}},
		Transports:      map[string]Transport{"local": failTransport{}},
		MaxHostFailures: 1,
		Retries:         -1,
		Backoff:         -1,
		LocalFallback:   true,
	})
	if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "sched: cancelled") {
		t.Fatalf("want sched's cancellation error, got %v", err)
	}
	if rep.Degraded || len(rep.Failed) == 0 {
		t.Fatalf("cancelled fallback reports degraded=%v, failed %v", rep.Degraded, rep.Failed)
	}

	out, rrep, err := Resume(dir, Options{
		Hosts:      []Host{{Name: "ok"}},
		Transports: map[string]Transport{"local": workerTransport()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("resumed directory diverges from serial run")
	}
	if len(rrep.Reused) != len(rep.Fallback) {
		t.Fatalf("resume reused %v, the cancelled fallback delivered %v", rrep.Reused, rep.Fallback)
	}
}

// TestSchedChaosMatrixConverges: chaos scenario 10 — a reproducible
// RandomFaults script peppers every attempt with kills, corrupt parts,
// and stragglers while speculation races the slow ones. Whatever the
// fault schedule does, the run must converge to the serial bytes
// (LocalFallback backstops even a fully-lost pool).
func TestSchedChaosMatrixConverges(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	inner := newInstantInner(t, spec, 4)
	for _, seed := range []int64{1, 7, 23} {
		script := RandomFaults(seed, FaultRates{
			Kill:    0.15,
			Corrupt: 0.10,
			DelayP:  0.15,
			Delay:   250 * time.Millisecond,
		})
		out, rep, err := Run(spec, Options{
			Dir:    t.TempDir(),
			Shards: 4,
			Hosts:  []Host{{Name: "a", Slots: 2}, {Name: "b", Slots: 2}},
			Transports: map[string]Transport{
				"local": &FaultTransport{Inner: inner, Script: script},
			},
			Speculate:        true,
			SpeculateFloor:   150 * time.Millisecond,
			HeartbeatTimeout: time.Second,
			MaxHostFailures:  5,
			Retries:          5,
			Backoff:          -1,
			LocalFallback:    true,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(want, canonical(t, out)) {
			t.Fatalf("seed %d: chaos-matrix output diverges from serial run (report %+v)", seed, rep)
		}
	}
}

// TestSchedReapsTransportGoroutines: every transport goroutine the
// scheduler launches — including speculation losers and silently hung
// attempts reaped by the heartbeat deadline — must exit before Run
// returns. Counted with runtime.NumGoroutine (short settle loop, no
// external leak-checker dependency).
func TestSchedReapsTransportGoroutines(t *testing.T) {
	spec := smallSpec()
	inner := newInstantInner(t, spec, 3)
	before := runtime.NumGoroutine()
	script := func(host Host, rangeIdx, n int) Fault {
		switch host.Name {
		case "slow": // speculation loser: cancelled mid-delay
			return Fault{Delay: 5 * time.Second}
		case "wedged": // silent hang: reaped by the heartbeat deadline
			return Fault{Hang: true, Mute: true}
		}
		return Fault{}
	}
	_, rep, err := Run(spec, Options{
		Dir:    t.TempDir(),
		Shards: 3,
		Hosts:  []Host{{Name: "slow"}, {Name: "wedged"}, {Name: "ok", Slots: 3}},
		Transports: map[string]Transport{
			"local": &FaultTransport{Inner: inner, Script: script},
		},
		Speculate:        true,
		SpeculateFloor:   100 * time.Millisecond,
		HeartbeatTimeout: 500 * time.Millisecond,
		Backoff:          -1,
		LocalFallback:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Failed) != 0 {
		t.Fatalf("failed ranges %v", rep.Failed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		// Allow slack for runtime-internal goroutines; what must not
		// remain is one goroutine per abandoned attempt.
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("transport goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// failTransport always errors without touching anything.
type failTransport struct{}

func (failTransport) Run(_ context.Context, _ Host, _ Assignment, _ func()) error {
	return fmt.Errorf("injected transport failure")
}

// TestSchedFailureResumable: when the whole pool is dead the run must
// fail naming the missing ranges and leave a directory that Resume, on a
// healthy one-host pool, finishes.
func TestSchedFailureResumable(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	dir := t.TempDir()
	_, rep, err := Run(spec, Options{
		Dir:        dir,
		Shards:     2,
		Hosts:      []Host{{Name: "dead"}},
		Transports: map[string]Transport{"local": failTransport{}},
		Retries:    -1,
	})
	if err == nil {
		t.Fatal("sched succeeded with a dead pool")
	}
	if len(rep.Failed) != 2 {
		t.Fatalf("failed ranges %v, want both", rep.Failed)
	}
	for _, word := range []string{"still missing", "resume"} {
		if !bytes.Contains([]byte(err.Error()), []byte(word)) {
			t.Fatalf("error %q lacks %q", err, word)
		}
	}

	// Resume reads the manifest — including its explicit range plan —
	// and completes the run on the default one-local-host pool.
	out, rrep, err := Resume(dir, Options{
		Hosts:      []Host{{Name: "local", Slots: 2}},
		Transports: map[string]Transport{"local": workerTransport()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("resumed directory diverges from serial run")
	}
	if len(rrep.Completed["local"]) != 2 {
		t.Fatalf("resume ran %v, want both ranges on the local host", rrep.Completed)
	}

	// And a re-run of the completed directory with the same spec reuses
	// every envelope whole.
	out2, rep2, err := Run(spec, Options{
		Dir:        dir,
		Shards:     2,
		Hosts:      []Host{{Name: "ok"}},
		Transports: map[string]Transport{"local": workerTransport()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out2)) {
		t.Fatal("resumed sched run diverges from serial run")
	}
	if len(rep2.Reused) != 2 || len(rep2.Completed) != 0 {
		t.Fatalf("resume report %+v", rep2)
	}
}

// TestSchedFailureNamesWorkerStderr: the terminal error of a run whose
// range failed for good carries that range's last error — including the
// worker's stderr tail — not just its index, so a caller that keeps only
// the error (the serve daemon's run status) still learns why.
func TestSchedFailureNamesWorkerStderr(t *testing.T) {
	_, rep, err := Run(smallSpec(), Options{
		Dir:        t.TempDir(),
		Shards:     2,
		Hosts:      []Host{{Name: "local"}},
		Transports: map[string]Transport{"local": &LocalExec{Spawn: helperSpawn("fail")}},
	})
	if err == nil {
		t.Fatal("run succeeded with a failing worker")
	}
	if len(rep.Failed) != 2 {
		t.Fatalf("failed ranges %v, want both", rep.Failed)
	}
	for _, want := range []string{"range 0: worker: exit status 3", "range 1: worker: exit status 3", "injected worker failure"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error lacks %q:\n%v", want, err)
		}
	}
}
