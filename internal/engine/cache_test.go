package engine

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"fairbench/internal/sched"
	"fairbench/internal/store"
)

// corruptOneCacheEntry overwrites exactly one stored cell under the
// cache directory with bytes that cannot verify, returning how many
// entries existed.
func corruptOneCacheEntry(t *testing.T, cacheDir string) int {
	t.Helper()
	var entries []string
	err := filepath.WalkDir(filepath.Join(cacheDir, "cells"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".json") {
			entries = append(entries, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no cache entries to corrupt")
	}
	if err := os.WriteFile(entries[0], []byte(`{"version":1,"tampered":true`), 0o644); err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// TestCorruptCacheEntryRejectedOnce is the regression test for the
// Rejected counter's plumbing: a warm rerun over a cache with exactly
// one corrupted cell must reject that entry exactly once (surfaced in
// Report.CacheStats), recompute exactly that one cell, and still
// produce the serial bytes.
func TestCorruptCacheEntryRejectedOnce(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	cache := t.TempDir()
	eng := New(RunOptions{CacheDir: cache})

	_, rep, err := eng.Run(context.Background(), spec, RunOptions{Backend: BackendInproc})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CellsComputed != 4 {
		t.Fatalf("cold report %+v", rep)
	}
	if n := corruptOneCacheEntry(t, cache); n != 4 {
		t.Fatalf("cache holds %d entries after the cold run, want 4", n)
	}

	out, rep, err := eng.Run(context.Background(), spec, RunOptions{Backend: BackendInproc})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("warm run over a corrupted cache diverges from serial run")
	}
	if rep.CacheStats.Rejected != 1 {
		t.Fatalf("rejected=%d, want exactly 1 (stats %+v)", rep.CacheStats.Rejected, rep.CacheStats)
	}
	if rep.CellsComputed != 1 || rep.CellsCached != 3 {
		t.Fatalf("warm report computed=%d cached=%d, want 1/3", rep.CellsComputed, rep.CellsCached)
	}
}

// TestRemoteStoreWarmRunSpawnsNothing is the engine-level acceptance
// check for the shared store: a process whose only cache is a remote
// server — no local cache directory at all — serves a grid another
// process computed with computed=0, zero worker spawns, and serial
// bytes.
func TestRemoteStoreWarmRunSpawnsNothing(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	serverDisk, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(store.Handler(serverDisk))
	defer srv.Close()

	// First process: computes everything, writing through to the server.
	eng := New(RunOptions{RemoteStore: srv.URL})
	_, rep, err := eng.Run(context.Background(), spec, RunOptions{Backend: BackendInproc})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CellsComputed != 4 || rep.CacheStats.Writes != 4 {
		t.Fatalf("cold report %+v (stats %+v)", rep, rep.CacheStats)
	}

	// Second process (same engine config, but nothing local): a
	// directory-backed run must short-circuit to the cache with no spawns.
	var spawns atomic.Int64
	out, rep, err := eng.Run(context.Background(), spec, RunOptions{
		Dir: t.TempDir(), Spawn: countingSpawn(&spawns),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ServedFromCache || rep.CellsComputed != 0 || rep.CellsCached != 4 {
		t.Fatalf("warm report %+v", rep)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("remote-warm output diverges from serial run")
	}
	if n := spawns.Load(); n != 0 {
		t.Fatalf("remote-warm run spawned %d worker subprocess(es), want 0", n)
	}
}

// TestSchedCorruptCacheEntryRejectedOnce is the sched-backed twin of
// TestCorruptCacheEntryRejectedOnce: the run's one cache-aware plan is
// the probe that meets the corrupted entry, so its rejection reaches
// Report.CacheStats, and a worker recomputes exactly that cell.
func TestSchedCorruptCacheEntryRejectedOnce(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	cache := t.TempDir()
	eng := New(RunOptions{CacheDir: cache, Spawn: helperSpawn()})
	if _, _, err := eng.Run(context.Background(), spec, RunOptions{Backend: BackendInproc}); err != nil {
		t.Fatal(err)
	}
	corruptOneCacheEntry(t, cache)

	out, rep, err := eng.Run(context.Background(), spec, RunOptions{Dir: t.TempDir(), Parallelism: 2, Sched: &sched.Options{Shards: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("sched rerun over a corrupted cache diverges from serial run")
	}
	if rep.CacheStats.Rejected != 1 {
		t.Fatalf("rejected=%d, want exactly 1 (stats %+v)", rep.CacheStats.Rejected, rep.CacheStats)
	}
	if rep.ServedFromCache || rep.CellsComputed != 1 || rep.CellsCached != 3 {
		t.Fatalf("sched rerun report %+v, want computed=1 cached=3", rep)
	}
}

// getCounter counts the GET requests a cache server answers.
type getCounter struct {
	inner http.Handler
	gets  atomic.Int64
}

func (c *getCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		c.gets.Add(1)
	}
	c.inner.ServeHTTP(w, r)
}

// TestSchedColdRunProbesEachCellOnce: a cold sched-backed run against a
// remote-only store plans once, so the server answers one plan-time
// probe and one worker read per cell, two GETs per cell in all.
func TestSchedColdRunProbesEachCellOnce(t *testing.T) {
	spec := smallSpec()
	serverDisk, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	counter := &getCounter{inner: store.Handler(serverDisk)}
	srv := httptest.NewServer(counter)
	defer srv.Close()

	_, rep, err := New(RunOptions{}).Run(context.Background(), spec, RunOptions{
		Dir: t.TempDir(), Parallelism: 2, Sched: &sched.Options{Shards: 2}, RemoteStore: srv.URL, Spawn: helperSpawn(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CellsComputed != 4 {
		t.Fatalf("cold report %+v", rep)
	}
	if n := counter.gets.Load(); n != 2*4 {
		t.Fatalf("cold run issued %d GETs for 4 cells, want 8: one plan probe and one worker read each", n)
	}
}

// TestWarmFreshRunWritesNothing: a fresh sched directory whose grid is
// fully cached is served in memory, so the run creates neither the
// directory nor a manifest or part in it. The pool is still validated
// first: a warm grid submitted with an invalid pool fails.
func TestWarmFreshRunWritesNothing(t *testing.T) {
	spec := smallSpec()
	cache := t.TempDir()
	eng := New(RunOptions{CacheDir: cache})
	if _, _, err := eng.Run(context.Background(), spec, RunOptions{Backend: BackendInproc}); err != nil {
		t.Fatal(err)
	}

	var spawns atomic.Int64
	dir := filepath.Join(t.TempDir(), "run")
	_, rep, err := eng.Run(context.Background(), spec, RunOptions{Dir: dir, Spawn: countingSpawn(&spawns)})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ServedFromCache || rep.Sched == nil || !rep.Sched.ServedFromCache || rep.CellsCached != 4 {
		t.Fatalf("warm report %+v", rep)
	}
	if rep.CacheStats.Hits != 4 || spawns.Load() != 0 {
		t.Fatalf("warm run: stats %+v, %d spawn(s); want 4 hits and none", rep.CacheStats, spawns.Load())
	}
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("fully cached run left %s behind (stat: %v)", dir, err)
	}

	_, _, err = eng.Run(context.Background(), spec, RunOptions{
		Dir: t.TempDir(), Sched: &sched.Options{Hosts: []sched.Host{{Name: "h"}, {Name: "h"}}},
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate host name") {
		t.Fatalf("warm grid on an invalid pool: err = %v, want the pool's validation error", err)
	}
}
