package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fairbench/internal/shard"
	"fairbench/internal/store"
)

func openStore(t *testing.T) *store.DiskStore {
	t.Helper()
	s, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWarmShardRunComputesNothing is half the PR's acceptance gate in
// process: a cold cached run and a warm re-run of the same spec must
// produce byte-identical merged output, and the warm run must perform
// zero cell computations — every cell a verified store hit, every
// envelope claiming full cached provenance.
func TestWarmShardRunComputesNothing(t *testing.T) {
	spec := Spec{Experiment: "fig7", Dataset: "german", N: 200, Seed: 5}
	s := openStore(t)

	reference, err := mustOpen(t, spec).RunAll() // uncached reference
	if err != nil {
		t.Fatal(err)
	}

	runK := func() (*Output, []*shard.Envelope) {
		const k = 2
		envs := make([]*shard.Envelope, k)
		for i := 0; i < k; i++ {
			env, err := shardWith(spec, i, k, s)
			if err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
			envs[i] = env
		}
		out, err := MergeShards(envs)
		if err != nil {
			t.Fatal(err)
		}
		return out, envs
	}

	cold, coldEnvs := runK()
	if !bytes.Equal(canonical(t, reference), canonical(t, cold)) {
		t.Fatal("cold cached run diverges from uncached run")
	}
	for i, env := range coldEnvs {
		if len(env.Cached) != 0 {
			t.Fatalf("cold shard %d claims %d cached cells", i, len(env.Cached))
		}
	}

	before := s.Counters()
	warm, warmEnvs := runK()
	after := s.Counters()

	// reference was already zeroTiming'd by the cold comparison; compare
	// warm against a fresh uncached run for a clean baseline.
	fresh, err := mustOpen(t, spec).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical(t, fresh), canonical(t, warm)) {
		t.Fatal("warm cached run diverges from uncached run")
	}
	g := mustOpen(t, spec)
	if hits := after.Hits - before.Hits; hits != int64(g.Len()) {
		t.Fatalf("warm run hit the store %d times, want %d (zero computations)", hits, g.Len())
	}
	if writes := after.Writes - before.Writes; writes != 0 {
		t.Fatalf("warm run wrote %d entries — it computed cells", writes)
	}
	total := 0
	for i, env := range warmEnvs {
		if len(env.Cached) != len(env.Indices) {
			t.Fatalf("warm shard %d: %d of %d cells cached", i, len(env.Cached), len(env.Indices))
		}
		total += len(env.Cached)
	}
	if total != g.Len() {
		t.Fatalf("warm provenance covers %d of %d cells", total, g.Len())
	}
}

// TestCorruptCacheEntryIsRecomputed: damaging one on-disk entry between
// runs must not change the output — the cell is rejected, recomputed,
// and re-cached.
func TestCorruptCacheEntryIsRecomputed(t *testing.T) {
	spec := Spec{Experiment: "fig23", Dataset: "compas", N: 300, Seed: 6,
		Sizes: []int{60, 120}, Names: []string{"LR", "KamCal-DP"}}
	s := openStore(t)
	cold, err := shardWith(spec, 0, 1, s)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate one cached entry in place.
	var corrupted bool
	err = filepath.Walk(s.Dir(), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || corrupted || !strings.HasSuffix(path, "0.json") {
			return err
		}
		corrupted = true
		return os.WriteFile(path, []byte("{truncated"), 0o644)
	})
	if err != nil || !corrupted {
		t.Fatalf("could not corrupt an entry: %v", err)
	}
	warm, err := shardWith(spec, 0, 1, s)
	if err != nil {
		t.Fatal(err)
	}
	if s.Counters().Rejected != 1 {
		t.Fatalf("rejected=%d, want 1", s.Counters().Rejected)
	}
	if len(warm.Cached) != len(warm.Indices)-1 {
		t.Fatalf("warm run cached %d of %d cells, want all but the corrupted one",
			len(warm.Cached), len(warm.Indices))
	}
	a, err := MergeShards([]*shard.Envelope{cold})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MergeShards([]*shard.Envelope{warm})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical(t, a), canonical(t, b)) {
		t.Fatal("recomputed run diverges from cold run")
	}
}

// TestWrongSeedLookupNeverHits: entries cached for one seed must be
// invisible to a run with another seed — different seeds have different
// fingerprints AND different key seeds, so this holds twice over.
func TestWrongSeedLookupNeverHits(t *testing.T) {
	s := openStore(t)
	spec := Spec{Experiment: "fig23", Dataset: "compas", N: 300, Seed: 1,
		Sizes: []int{60}, Names: []string{"LR"}}
	if _, err := shardWith(spec, 0, 1, s); err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Seed = 2
	env, err := shardWith(other, 0, 1, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Cached) != 0 {
		t.Fatal("wrong-seed run was served from the cache")
	}
}
