package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var fpA = strings.Repeat("ab", 32)
var fpB = strings.Repeat("cd", 32)

func key(fp string, idx int, seed int64) Key {
	return Key{Fingerprint: fp, Index: idx, Seed: seed, Arch: "amd64"}
}

func mustOpen(t *testing.T) *DiskStore {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t)
	k := key(fpA, 3, 42)
	payload := []byte(`{"index":3,"row":{"acc":0.91}}`)
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: ok=%v got=%s", ok, got)
	}
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Writes != 1 || c.Rejected != 0 {
		t.Fatalf("counters %+v", c)
	}
}

// TestCorruptedEntryRejectedAndRecomputed: a truncated or bit-flipped
// entry must never be served — it reads as a miss (so the caller
// recomputes), is counted as Rejected, and is removed so the next Put
// repopulates it cleanly.
func TestCorruptedEntryRejectedAndRecomputed(t *testing.T) {
	payload := []byte(`{"index":0,"seconds":1.5}`)
	corruptions := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bit-flip": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			// Flip a byte inside the payload field, past the header fields.
			c[len(c)-10] ^= 0xff
			return c
		},
		"empty": func([]byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := mustOpen(t)
			k := key(fpA, 0, 7)
			if err := s.Put(k, payload); err != nil {
				t.Fatal(err)
			}
			p := s.path(k)
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(k); ok {
				t.Fatal("corrupted entry served")
			}
			if c := s.Counters(); c.Rejected != 1 {
				t.Fatalf("rejected=%d, want 1", c.Rejected)
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Fatal("corrupted entry not removed")
			}
			// Recompute path: a fresh Put fully restores the entry.
			if err := s.Put(k, payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(k); !ok || !bytes.Equal(got, payload) {
				t.Fatal("entry not recoverable after corruption")
			}
		})
	}
}

// TestWrongKeyNeverHits is the cache-poisoning test: an entry written
// under one key, even when copied to the on-disk address of another key,
// must never satisfy a lookup for that other key — the recorded key
// fields are verified against the request, not just the path.
func TestWrongKeyNeverHits(t *testing.T) {
	s := mustOpen(t)
	good := key(fpA, 2, 1)
	if err := s.Put(good, []byte(`{"index":2}`)); err != nil {
		t.Fatal(err)
	}
	for name, forged := range map[string]Key{
		"wrong-seed":  key(fpA, 2, 99),
		"wrong-index": key(fpA, 5, 1),
		"wrong-arch":  {Fingerprint: fpA, Index: 2, Seed: 1, Arch: "arm64"},
		"wrong-fp":    key(fpB, 2, 1),
	} {
		t.Run(name, func(t *testing.T) {
			// Plant the seed-1 entry at the forged key's address.
			raw, err := os.ReadFile(s.path(good))
			if err != nil {
				t.Fatal(err)
			}
			p := s.path(forged)
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(forged); ok {
				t.Fatalf("%s: poisoned entry satisfied the lookup", name)
			}
			// Re-plant for the next subtest; the rejected copy was removed.
			if err := s.Put(good, []byte(`{"index":2}`)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentWriters exercises racing Put/Get of the same and
// neighboring cells under -race: last rename wins and every read sees
// either a miss or a fully verified payload.
func TestConcurrentWriters(t *testing.T) {
	s := mustOpen(t)
	const goroutines = 16
	const cells = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := key(fpA, i%cells, 7)
				payload := []byte(fmt.Sprintf(`{"index":%d}`, i%cells))
				if err := s.Put(k, payload); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(k); ok && !bytes.Equal(got, payload) {
					t.Errorf("goroutine %d read foreign payload %s", g, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c := s.Counters(); c.Rejected != 0 {
		t.Fatalf("concurrent writers produced %d rejected entries", c.Rejected)
	}
}

// TestGCRespectsInUseFingerprints: GC drops only grids the keep
// predicate disclaims, entry by entry.
func TestGCRespectsInUseFingerprints(t *testing.T) {
	s := mustOpen(t)
	for i := 0; i < 3; i++ {
		if err := s.Put(key(fpA, i, 1), []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(key(fpB, i, 1), []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := s.GC(func(fp string) bool { return fp == fpA })
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("removed %d grids, want 1", removed)
	}
	for i := 0; i < 3; i++ {
		if _, ok := s.Get(key(fpA, i, 1)); !ok {
			t.Fatalf("GC removed in-use entry %d", i)
		}
		if _, ok := s.Get(key(fpB, i, 1)); ok {
			t.Fatalf("GC kept disclaimed entry %d", i)
		}
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 3 || st.Fingerprints != 1 || st.Bytes == 0 {
		t.Fatalf("stats after GC: %+v", st)
	}
}

func TestKeyValidation(t *testing.T) {
	s := mustOpen(t)
	for _, bad := range []Key{
		{Fingerprint: "short", Index: 0, Seed: 1, Arch: "amd64"},
		{Fingerprint: fpA, Index: -1, Seed: 1, Arch: "amd64"},
		{Fingerprint: fpA, Index: 0, Seed: 1, Arch: ""},
	} {
		if err := s.Put(bad, []byte(`{}`)); err == nil {
			t.Fatalf("key %+v accepted", bad)
		}
		if _, ok := s.Get(bad); ok {
			t.Fatalf("key %+v served", bad)
		}
	}
}
