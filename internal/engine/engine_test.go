package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fairbench/internal/dispatch"
	"fairbench/internal/experiments"
	"fairbench/internal/sched"
)

// TestMain doubles as the worker subprocess body — the re-exec pattern
// internal/dispatch and internal/sched tests use. "worker" runs a real
// shard via dispatch.Worker; with FAIRBENCH_WORKER_DELAY_MS in its
// environment it pauses first, which is how cancellation tests hold a
// genuinely live worker open.
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
	}
	os.Exit(2)
}

// helperSpawn re-execs this test binary as a worker subprocess.
func helperSpawn(extraEnv ...string) dispatch.SpawnFunc {
	return func(manifestPath string, shard int, outPath string) (*exec.Cmd, error) {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			"FAIRBENCH_TEST_HELPER=worker",
			"HELPER_MANIFEST="+manifestPath,
			"HELPER_SHARD="+strconv.Itoa(shard),
			"HELPER_OUT="+outPath,
		)
		cmd.Env = append(cmd.Env, extraEnv...)
		return cmd, nil
	}
}

// countingSpawn wraps helperSpawn and counts invocations — the probe
// that proves a warm grid never reaches a worker subprocess.
func countingSpawn(n *atomic.Int64, extraEnv ...string) dispatch.SpawnFunc {
	inner := helperSpawn(extraEnv...)
	return func(manifestPath string, shard int, outPath string) (*exec.Cmd, error) {
		n.Add(1)
		return inner(manifestPath, shard, outPath)
	}
}

func smallSpec() experiments.Spec {
	return experiments.Spec{Experiment: "fig23", Dataset: "compas", N: 300, Seed: 6,
		Sizes: []int{60, 120}, Names: []string{"LR", "KamCal-DP"}}
}

// canonical marshals an output with its timing fields zeroed (the
// byte-identical guarantee covers the metric payload).
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

// TestResolveBackend pins the BackendAuto resolution rules: hosts or a
// directory select sched, nothing selects in-process, an explicit
// backend always wins, and the deprecated BackendDispatch is sched.
func TestResolveBackend(t *testing.T) {
	hosts := []sched.Host{{Name: "a"}}
	cases := []struct {
		opts RunOptions
		want Backend
	}{
		{RunOptions{}, BackendInproc},
		{RunOptions{Dir: "/tmp/x"}, BackendSched},
		{RunOptions{Sched: &sched.Options{Hosts: hosts}}, BackendSched},
		{RunOptions{Dir: "/tmp/x", Sched: &sched.Options{Hosts: hosts}}, BackendSched},
		{RunOptions{Backend: BackendDispatch, Dir: "/tmp/x"}, BackendSched},
		{RunOptions{Backend: BackendInproc, Dir: "/tmp/x", Sched: &sched.Options{Hosts: hosts}}, BackendInproc},
	}
	for _, c := range cases {
		if got := resolve(c.opts); got != c.want {
			t.Errorf("resolve(%+v) = %q, want %q", c.opts, got, c.want)
		}
	}
}

// TestBackendsMatchSerial is the engine's core guarantee: one Run call,
// both backends — sched over its default one-local-host pool and over
// an explicit pool — all byte-identical to the serial reference.
func TestBackendsMatchSerial(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	ctx := context.Background()
	eng := New(RunOptions{})

	out, rep, err := eng.Run(ctx, spec, RunOptions{Backend: BackendInproc})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("inproc output diverges from serial run")
	}
	if rep.Backend != BackendInproc || rep.CellsComputed != 4 || rep.Fingerprint == "" {
		t.Fatalf("inproc report %+v", rep)
	}

	out, rep, err = eng.Run(ctx, spec, RunOptions{
		Dir: t.TempDir(), Parallelism: 2, Sched: &sched.Options{Shards: 2}, Spawn: helperSpawn(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("hostless sched output diverges from serial run")
	}
	if rep.Backend != BackendSched || rep.Sched == nil || rep.CellsComputed != 4 ||
		len(rep.Sched.Completed["local"]) != 2 {
		t.Fatalf("hostless sched report %+v", rep)
	}

	out, rep, err = eng.Run(ctx, spec, RunOptions{
		Dir:   t.TempDir(),
		Sched: &sched.Options{Hosts: []sched.Host{{Name: "h1", Slots: 2}}},
		Spawn: helperSpawn(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("sched output diverges from serial run")
	}
	if rep.Backend != BackendSched || rep.Sched == nil || rep.CellsComputed != 4 {
		t.Fatalf("sched report %+v", rep)
	}
}

// TestCancellationStopsWorkersPromptly: cancel a hostless sched run
// while delayed workers are genuinely executing; Run must return quickly
// with an error wrapping context.Canceled, and the directory must resume
// to the serial answer afterwards.
func TestCancellationStopsWorkersPromptly(t *testing.T) {
	spec := smallSpec()
	dir := t.TempDir()
	eng := New(RunOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := eng.Run(ctx, spec, RunOptions{
		Dir: dir, Parallelism: 2, Sched: &sched.Options{Shards: 2},
		Spawn: helperSpawn("FAIRBENCH_WORKER_DELAY_MS=20000"),
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Workers were told to sleep 20s; a prompt stop returns in well
	// under that, even on a loaded machine.
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; workers were not stopped promptly", elapsed)
	}

	out, rep, err := eng.ResumeRun(context.Background(), dir, RunOptions{
		Parallelism: 2, Spawn: helperSpawn(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialReference(t, spec), canonical(t, out)) {
		t.Fatal("resumed output diverges from serial run")
	}
	if rep.Backend != BackendSched {
		t.Fatalf("resume report %+v", rep)
	}
}

// TestInprocCancelledBeforeStart: an already-cancelled ctx fails fast on
// the in-process backend too.
func TestInprocCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := New(RunOptions{}).Run(ctx, smallSpec(), RunOptions{Backend: BackendInproc})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestWarmGridSpawnsNothing: once the store holds every cell, a
// directory-backed Run, with or without hosts, is answered by the calling process —
// ServedFromCache set, computed=0, and the spawn counter still zero.
func TestWarmGridSpawnsNothing(t *testing.T) {
	spec := smallSpec()
	cache := t.TempDir()
	eng := New(RunOptions{CacheDir: cache})

	// Warm the store with an in-process run.
	_, rep, err := eng.Run(context.Background(), spec, RunOptions{Backend: BackendInproc})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CellsComputed != 4 || rep.CellsCached != 0 {
		t.Fatalf("cold report %+v", rep)
	}

	var spawns atomic.Int64
	out, rep, err := eng.Run(context.Background(), spec, RunOptions{
		Dir: t.TempDir(), Spawn: countingSpawn(&spawns),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ServedFromCache || rep.CellsComputed != 0 || rep.CellsCached != 4 {
		t.Fatalf("warm hostless report %+v", rep)
	}
	if !bytes.Equal(serialReference(t, spec), canonical(t, out)) {
		t.Fatal("warm output diverges from serial run")
	}
	if n := spawns.Load(); n != 0 {
		t.Fatalf("warm run spawned %d worker subprocess(es), want 0", n)
	}

	out, rep, err = eng.Run(context.Background(), spec, RunOptions{
		Dir:   t.TempDir(),
		Sched: &sched.Options{Hosts: []sched.Host{{Name: "h1"}}},
		Spawn: countingSpawn(&spawns),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ServedFromCache || rep.Backend != BackendSched || rep.CellsComputed != 0 {
		t.Fatalf("warm sched report %+v", rep)
	}
	if !bytes.Equal(serialReference(t, spec), canonical(t, out)) {
		t.Fatal("warm sched output diverges from serial run")
	}
	if n := spawns.Load(); n != 0 {
		t.Fatalf("warm sched run spawned %d worker subprocess(es), want 0", n)
	}
}

// TestDefaultsInherit: fields left zero on a call inherit the engine's
// defaults — the daemon's usage pattern (pin cache + spawn once, pass
// only the per-run directory).
func TestDefaultsInherit(t *testing.T) {
	spec := smallSpec()
	var spawns atomic.Int64
	eng := New(RunOptions{
		CacheDir: t.TempDir(), Parallelism: 2, Sched: &sched.Options{Shards: 2},
		Spawn: countingSpawn(&spawns),
	})
	out, rep, err := eng.Run(context.Background(), spec, RunOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != BackendSched || rep.CellsComputed != 4 {
		t.Fatalf("report %+v", rep)
	}
	if spawns.Load() == 0 {
		t.Fatal("default Spawn was not used")
	}
	if !bytes.Equal(serialReference(t, spec), canonical(t, out)) {
		t.Fatal("output diverges from serial run")
	}
}

// TestMergedOverlaysEveryField: a call that leaves every field zero
// inherits each of the defaults' fields, and a call's Sched replaces
// the defaults' Sched whole instead of being overlaid field by field.
func TestMergedOverlaysEveryField(t *testing.T) {
	defaults := RunOptions{
		Backend: BackendSched, Dir: "d", Parallelism: 3, CacheDir: "c", RemoteStore: "r",
		Sched: &sched.Options{Retries: 2, LocalFallback: true}, Spawn: helperSpawn(), Log: io.Discard,
	}
	eng := New(defaults)
	got, want := reflect.ValueOf(eng.merged(RunOptions{})), reflect.ValueOf(defaults)
	for i := 0; i < want.NumField(); i++ {
		name := want.Type().Field(i).Name
		if want.Field(i).IsZero() {
			t.Fatalf("test defaults leave %s zero", name)
		}
		if got.Field(i).IsZero() {
			t.Errorf("merged drops the default %s", name)
		}
	}
	call := &sched.Options{}
	if m := eng.merged(RunOptions{Sched: call}); m.Sched != call {
		t.Fatalf("merged Sched = %+v, want the call's own", m.Sched)
	}
}

// TestSchedReplacesDefaultsWhole: a call's Sched turns off what the
// defaults' Sched turns on. A pool whose one host fails every attempt
// completes degraded under the defaults' LocalFallback and fails under
// a call Sched that leaves LocalFallback unset.
func TestSchedReplacesDefaultsWhole(t *testing.T) {
	spec := smallSpec()
	eng := New(RunOptions{
		Parallelism: 1, Spawn: helperSpawn("FAIRBENCH_TEST_HELPER=fail"),
		Sched: &sched.Options{LocalFallback: true, MaxHostFailures: 1, Backoff: -1},
	})
	out, rep, err := eng.Run(context.Background(), spec, RunOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || !bytes.Equal(serialReference(t, spec), canonical(t, out)) {
		t.Fatalf("defaults' LocalFallback: report %+v", rep)
	}
	_, rep, err = eng.Run(context.Background(), spec, RunOptions{
		Dir: t.TempDir(), Sched: &sched.Options{MaxHostFailures: 1, Backoff: -1},
	})
	if err == nil || rep == nil || rep.Degraded {
		t.Fatalf("call Sched without LocalFallback: err %v, report %+v", err, rep)
	}
}

// TestSchedMayNotSetEngineFields: Dir, CacheDir, RemoteStore and Log
// belong to RunOptions, so a Sched setting any of them fails Run and
// ResumeRun before anything is planned or spawned.
func TestSchedMayNotSetEngineFields(t *testing.T) {
	for name, so := range map[string]*sched.Options{
		"Dir": {Dir: "d"}, "CacheDir": {CacheDir: "c"},
		"RemoteStore": {RemoteStore: "http://127.0.0.1:1"}, "Log": {Log: io.Discard},
	} {
		var spawns atomic.Int64
		eng := New(RunOptions{Spawn: countingSpawn(&spawns)})
		dir := t.TempDir()
		if _, _, err := eng.Run(context.Background(), smallSpec(), RunOptions{Dir: dir, Sched: so}); err == nil {
			t.Errorf("Run with Sched.%s set succeeded", name)
		}
		if _, _, err := eng.ResumeRun(context.Background(), dir, RunOptions{Sched: so}); err == nil {
			t.Errorf("ResumeRun with Sched.%s set succeeded", name)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 || spawns.Load() != 0 {
			t.Errorf("Sched.%s: run wrote %d entries and spawned %d workers", name, len(entries), spawns.Load())
		}
	}
}

// TestSpawnMayNotMeetLocalTransport: Spawn and Sched.Transports["local"]
// both set how local workers start, so a run given both fails Run and
// ResumeRun, naming both fields, before anything is written or spawned
// through either.
func TestSpawnMayNotMeetLocalTransport(t *testing.T) {
	var spawns, transportSpawns atomic.Int64
	so := &sched.Options{Transports: map[string]sched.Transport{
		"local": &sched.LocalExec{Spawn: countingSpawn(&transportSpawns)},
	}}
	eng := New(RunOptions{Spawn: countingSpawn(&spawns)})
	dir := t.TempDir()
	_, _, runErr := eng.Run(context.Background(), smallSpec(), RunOptions{Dir: dir, Sched: so})
	_, _, resumeErr := eng.ResumeRun(context.Background(), dir, RunOptions{Sched: so})
	for name, err := range map[string]error{"Run": runErr, "ResumeRun": resumeErr} {
		if err == nil || !strings.Contains(err.Error(), "Spawn") || !strings.Contains(err.Error(), `Transports["local"]`) {
			t.Errorf("%s with Spawn and a local transport: err %v, want one naming both", name, err)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 || spawns.Load() != 0 || transportSpawns.Load() != 0 {
		t.Errorf("run wrote %d entries and spawned %d workers through Spawn, %d through the transport",
			len(entries), spawns.Load(), transportSpawns.Load())
	}
}

// TestNilSchedRunsOneLocalHost: with no Sched, Parallelism N schedules
// on one local host of N slots, whose slot count is also the shard
// target.
func TestNilSchedRunsOneLocalHost(t *testing.T) {
	so, err := schedOptions(RunOptions{Dir: "d", Parallelism: 3})
	if err != nil || !reflect.DeepEqual(so.Hosts, []sched.Host{{Name: "local", Slots: 3}}) {
		t.Fatalf("schedOptions hosts %+v, err %v; want one local host of 3 slots", so.Hosts, err)
	}
	_, rep, err := New(RunOptions{}).Run(context.Background(), smallSpec(), RunOptions{
		Dir: t.TempDir(), Parallelism: 1, Spawn: helperSpawn(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sched.Ranges) != 1 || !reflect.DeepEqual(rep.Sched.Completed, map[string][]int{"local": {0}}) {
		t.Fatalf("report ranges %v, completed %v; want one range on host local", rep.Sched.Ranges, rep.Sched.Completed)
	}
}

// TestResumeAdoptsUniformSplitManifest: a directory whose manifest has
// no range plan — the layout the old subprocess dispatcher wrote, which
// serve state directories from before it was folded into sched still
// hold — resumes through ResumeRun on the uniform split its workers
// used: the part already on disk is reused, only the missing one runs,
// and the merge equals the serial run.
func TestResumeAdoptsUniformSplitManifest(t *testing.T) {
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
	dir := t.TempDir()
	m := &dispatch.Manifest{Version: dispatch.ManifestVersion, Spec: spec, Shards: 2, Fingerprint: fp}
	if err := m.Write(filepath.Join(dir, dispatch.ManifestName)); err != nil {
		t.Fatal(err)
	}
	env, err := experiments.RunShardContext(context.Background(), spec, 0, 2, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, dispatch.PartName(0)), data, 0o644); err != nil {
		t.Fatal(err)
	}

	out, rep, err := New(RunOptions{}).ResumeRun(context.Background(), dir, RunOptions{
		Parallelism: 2, Spawn: helperSpawn(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialReference(t, spec), canonical(t, out)) {
		t.Fatal("resumed plan-less directory diverges from serial run")
	}
	if rep.Backend != BackendSched || !reflect.DeepEqual(rep.Sched.Reused, []int{0}) ||
		!reflect.DeepEqual(rep.Sched.Completed["local"], []int{1}) {
		t.Fatalf("resume report %+v, sched %+v", rep, rep.Sched)
	}
}
