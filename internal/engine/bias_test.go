package engine

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fairbench/internal/experiments"
	"fairbench/internal/sched"
)

// biasedSpec is smallSpec with under-representation injected — the
// engine-level probe that the bias axis rides the GridSpec through
// every backend untouched.
func biasedSpec() experiments.Spec {
	s := smallSpec()
	s.Bias, s.BiasRate, s.BiasRateNeg = experiments.BiasUnder, 0.3, 0.1
	return s
}

// TestBiasedBackendsMatchSerial: one biased spec, both backends (sched
// with and without hosts), all byte-identical to the serial reference — and every report names the
// coordinator's architecture (the store's cache partition).
func TestBiasedBackendsMatchSerial(t *testing.T) {
	spec := biasedSpec()
	want := serialReference(t, spec)
	if clean := serialReference(t, smallSpec()); bytes.Equal(want, clean) {
		t.Fatal("biased grid produced the clean grid's rows — injection did not happen")
	}
	ctx := context.Background()
	eng := New(RunOptions{})

	out, rep, err := eng.Run(ctx, spec, RunOptions{Backend: BackendInproc})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("inproc biased output diverges from serial run")
	}
	if rep.Arch != runtime.GOARCH {
		t.Fatalf("inproc report arch %q, want %q", rep.Arch, runtime.GOARCH)
	}

	out, rep, err = eng.Run(ctx, spec, RunOptions{
		Dir: t.TempDir(), Parallelism: 2, Sched: &sched.Options{Shards: 2}, Spawn: helperSpawn(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("hostless sched biased output diverges from serial run")
	}
	if rep.Backend != BackendSched || rep.Arch != runtime.GOARCH {
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
		t.Fatal("sched biased output diverges from serial run")
	}
	if rep.Backend != BackendSched || rep.Arch != runtime.GOARCH {
		t.Fatalf("sched report %+v", rep)
	}
}

// TestBiasedWarmGridComputesNothing: a warm store answers a biased grid
// without spawning a worker — computed=0 — while the clean spec, whose
// fingerprint differs only in the bias fields, finds none of those
// entries.
func TestBiasedWarmGridComputesNothing(t *testing.T) {
	spec := biasedSpec()
	eng := New(RunOptions{CacheDir: t.TempDir()})

	_, rep, err := eng.Run(context.Background(), spec, RunOptions{Backend: BackendInproc})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CellsComputed == 0 || rep.CellsCached != 0 {
		t.Fatalf("cold biased report %+v", rep)
	}

	var spawns atomic.Int64
	out, rep, err := eng.Run(context.Background(), spec, RunOptions{
		Dir: t.TempDir(), Spawn: countingSpawn(&spawns),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ServedFromCache || rep.CellsComputed != 0 {
		t.Fatalf("warm biased report %+v", rep)
	}
	if n := spawns.Load(); n != 0 {
		t.Fatalf("warm biased run spawned %d worker(s), want 0", n)
	}
	if !bytes.Equal(serialReference(t, spec), canonical(t, out)) {
		t.Fatal("warm biased output diverges from serial run")
	}

	// The clean grid must not be served from the biased grid's entries.
	_, rep, err = eng.Run(context.Background(), smallSpec(), RunOptions{Backend: BackendInproc})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CellsCached != 0 {
		t.Fatalf("clean grid was served %d cells cached for the biased grid", rep.CellsCached)
	}
}

// TestBiasedRunResumesAfterKilledWorker: cancel a biased hostless run
// while delayed workers genuinely execute (the engine kills them), then
// resume the directory — the finished output must still be
// byte-identical to serial. This is the acceptance criterion that a
// bias-swept grid stays resumable.
func TestBiasedRunResumesAfterKilledWorker(t *testing.T) {
	spec := biasedSpec()
	dir := t.TempDir()
	eng := New(RunOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	_, _, err := eng.Run(ctx, spec, RunOptions{
		Dir: dir, Parallelism: 2, Sched: &sched.Options{Shards: 2},
		Spawn: helperSpawn("FAIRBENCH_WORKER_DELAY_MS=20000"),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	out, rep, err := eng.ResumeRun(context.Background(), dir, RunOptions{
		Parallelism: 2, Spawn: helperSpawn(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialReference(t, spec), canonical(t, out)) {
		t.Fatal("resumed biased output diverges from serial run")
	}
	if rep.Backend != BackendSched {
		t.Fatalf("resume report %+v", rep)
	}
}
