package sched

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fairbench/internal/dispatch"
)

func TestLoadHosts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hosts.json")
	body := `[
  {"name": "local", "slots": 4},
  {"name": "big", "slots": 16, "transport": "remote",
   "cmd": ["ssh", "-oBatchMode=yes", "big", "/usr/local/bin/fairbench"]}
]`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	hosts, err := LoadHosts(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 2 || hosts[0].Name != "local" || hosts[1].Slots != 16 ||
		hosts[1].Transport != "remote" || len(hosts[1].Cmd) != 4 {
		t.Fatalf("hosts %+v", hosts)
	}

	if err := os.WriteFile(path, []byte(`[]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadHosts(path); err == nil || !strings.Contains(err.Error(), "no hosts") {
		t.Fatalf("empty pool accepted: %v", err)
	}
	if _, err := LoadHosts(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := os.WriteFile(path, []byte(`{"hosts": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadHosts(path); err == nil {
		t.Fatal("non-array pool accepted")
	}
}

func TestBuildPoolValidation(t *testing.T) {
	cases := []struct {
		hosts []Host
		want  string
	}{
		{[]Host{{Name: ""}}, "no name"},
		{[]Host{{Name: "a"}, {Name: "a"}}, "duplicate"},
		{[]Host{{Name: "a", Transport: "teleport"}}, "unknown transport"},
	}
	for _, c := range cases {
		if _, _, err := buildPool(&Options{Hosts: c.hosts}); err == nil ||
			!strings.Contains(err.Error(), c.want) {
			t.Fatalf("hosts %+v: got %v, want %q", c.hosts, err, c.want)
		}
	}

	// Defaults: one local host, slots filled in, shard target = slots.
	opts := &Options{Hosts: []Host{{Name: "a"}, {Name: "b", Slots: 3}}}
	pool, _, err := buildPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	if pool[0].Slots != 1 || pool[1].Slots != 3 || opts.Shards != 4 {
		t.Fatalf("pool %+v shards %d", pool, opts.Shards)
	}
	// Zero retries means no retry round, not a default of one.
	if opts.HeartbeatTimeout <= 0 || opts.Retries != 0 || opts.MaxHostFailures != 3 {
		t.Fatalf("defaults %+v", opts)
	}
	// A negative retry budget means zero extra rounds; a positive one is
	// kept as given.
	for in, want := range map[int]int{-5: 0, 2: 2} {
		o := &Options{Retries: in}
		if _, _, err := buildPool(o); err != nil || o.Retries != want {
			t.Fatalf("retries %d: %v, got %d, want %d", in, err, o.Retries, want)
		}
	}
}

// TestSchedRejectsForeignDirectory: scheduling a different grid into a
// live sched directory must be refused, as must silently switching the
// run's cache directory.
func TestSchedRejectsForeignDirectory(t *testing.T) {
	spec := smallSpec()
	dir := t.TempDir()
	if _, _, err := Run(spec, Options{
		Dir: dir, Shards: 2, Hosts: []Host{{Name: "a"}},
		Transports: map[string]Transport{"local": workerTransport()},
	}); err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Seed = 99
	if _, _, err := Run(other, Options{
		Dir: dir, Shards: 2, Hosts: []Host{{Name: "a"}},
		Transports: map[string]Transport{"local": workerTransport()},
	}); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("want different-run refusal, got %v", err)
	}
	if _, _, err := Run(spec, Options{
		Dir: dir, Shards: 2, Hosts: []Host{{Name: "a"}}, CacheDir: t.TempDir(),
		Transports: map[string]Transport{"local": workerTransport()},
	}); err == nil || !strings.Contains(err.Error(), "cannot change") {
		t.Fatalf("want cache-dir conflict refusal, got %v", err)
	}
}

// TestSchedAdoptsManifestCache: re-running a cached directory WITHOUT
// the cache option must adopt the manifest's cache directory for
// planning too — a warm directory with missing parts is served entirely
// by the coordinator, never a transport.
func TestSchedAdoptsManifestCache(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	dir, cacheDir := t.TempDir(), t.TempDir()
	_, _, err := Run(spec, Options{
		Dir: dir, Shards: 2, CacheDir: cacheDir, Hosts: []Host{{Name: "a"}},
		Transports: map[string]Transport{"local": workerTransport()},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Lose the parts but keep the cache: the re-run (no CacheDir in its
	// options) must rediscover every cell through the manifest's cache.
	for i := 0; i < 2; i++ {
		if err := os.Remove(filepath.Join(dir, dispatch.PartName(i))); err != nil {
			t.Fatal(err)
		}
	}
	out, rep, err := Run(spec, Options{
		Dir: dir, Shards: 2, Hosts: []Host{{Name: "a"}},
		Transports: map[string]Transport{"local": forbidTransport{t}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("cache-adopting re-run diverges from serial run")
	}
	if rep.CellsComputed != 0 || len(rep.Skipped) != len(rep.Ranges) {
		t.Fatalf("re-run computed %d cells, skipped %v of %d ranges",
			rep.CellsComputed, rep.Skipped, len(rep.Ranges))
	}
}

// TestSchedResumeUsesManifest: Resume takes spec, plan, and cache from
// the manifest and completes missing ranges.
func TestSchedResumeUsesManifest(t *testing.T) {
	spec := smallSpec()
	want := serialReference(t, spec)
	dir := t.TempDir()
	_, _, err := Run(spec, Options{
		Dir: dir, Shards: 2, Hosts: []Host{{Name: "dead"}},
		Transports: map[string]Transport{"local": failTransport{}},
		Retries:    -1,
	})
	if err == nil {
		t.Fatal("dead pool succeeded")
	}
	out, rep, err := Resume(dir, Options{
		Hosts:      []Host{{Name: "ok"}},
		Transports: map[string]Transport{"local": workerTransport()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, canonical(t, out)) {
		t.Fatal("resumed output diverges from serial run")
	}
	if len(rep.Completed["ok"]) != 2 {
		t.Fatalf("resume completed %v", rep.Completed)
	}
	if _, _, err := Resume(t.TempDir(), Options{}); err == nil ||
		!strings.Contains(err.Error(), "nothing to resume") {
		t.Fatalf("want nothing-to-resume error, got %v", err)
	}
}
