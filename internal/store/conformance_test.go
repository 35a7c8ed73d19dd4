package store

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
)

// conformanceHandle is one backend under the conformance suite, with
// the two hooks the backend-agnostic subtests need: a way to corrupt
// every stored copy of a key, and the total rejection count observable
// anywhere in the setup (client handle plus any server-side store —
// a remote backend rejects corrupt entries on whichever side reads
// them first, and the suite only cares that *someone* refused).
type conformanceHandle struct {
	b        Backend
	corrupt  func(t *testing.T, k Key)
	rejected func() int64
}

// corruptFile overwrites a stored entry with bytes that parse as JSON
// but fail key-field verification — the closest analogue to a mis-filed
// or tampered entry, which every backend must reject rather than serve.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("corrupting %s: %v", path, err)
	}
	if err := os.WriteFile(path, []byte(`{"version":1,"fingerprint":"tampered"}`), 0o644); err != nil {
		t.Fatal(err)
	}
}

// conformanceBackends builds each Backend implementation over fresh
// state: the on-disk store, the HTTP client against a real Handler
// server, and the tiered composition of both.
func conformanceBackends(t *testing.T) map[string]func(t *testing.T) conformanceHandle {
	return map[string]func(t *testing.T) conformanceHandle{
		"disk": func(t *testing.T) conformanceHandle {
			s := mustOpen(t)
			return conformanceHandle{
				b:        s,
				corrupt:  func(t *testing.T, k Key) { corruptFile(t, s.path(k)) },
				rejected: func() int64 { return s.Counters().Rejected },
			}
		},
		"remote": func(t *testing.T) conformanceHandle {
			sd := mustOpen(t)
			srv := httptest.NewServer(Handler(sd))
			t.Cleanup(srv.Close)
			r, err := NewRemote(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			return conformanceHandle{
				b:       r,
				corrupt: func(t *testing.T, k Key) { corruptFile(t, sd.path(k)) },
				// The server-side store rejects a corrupt entry before the
				// client ever sees bytes; a corrupt *response* would land on
				// the client's counter instead. Sum both.
				rejected: func() int64 { return r.Counters().Rejected + sd.Counters().Rejected },
			}
		},
		"tiered": func(t *testing.T) conformanceHandle {
			local := mustOpen(t)
			sd := mustOpen(t)
			srv := httptest.NewServer(Handler(sd))
			t.Cleanup(srv.Close)
			r, err := NewRemote(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			ts := NewTiered(local, r)
			return conformanceHandle{
				b: ts,
				// Both tiers hold a copy after a write-through; corrupt every
				// copy or the other tier would legitimately serve the cell.
				corrupt: func(t *testing.T, k Key) {
					corruptFile(t, local.path(k))
					corruptFile(t, sd.path(k))
				},
				rejected: func() int64 { return ts.Counters().Rejected + sd.Counters().Rejected },
			}
		},
	}
}

// TestBackendConformance runs the shared Backend contract over every
// implementation: verified round trips, key isolation, corruption
// rejection with recompute, and concurrent same-key writers. New backends
// join the suite by adding a constructor above.
func TestBackendConformance(t *testing.T) {
	for name, mk := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			t.Run("RoundTrip", func(t *testing.T) {
				h := mk(t)
				k := key(fpA, 3, 42)
				payload := []byte(`{"index":3,"row":{"acc":0.91}}`)
				if _, ok := h.b.Get(k); ok {
					t.Fatal("hit on empty backend")
				}
				if err := h.b.Put(k, payload); err != nil {
					t.Fatal(err)
				}
				got, ok := h.b.Get(k)
				if !ok || !bytes.Equal(got, payload) {
					t.Fatalf("round trip: ok=%v got=%s", ok, got)
				}
				c := h.b.Counters()
				if c.Hits == 0 || c.Writes == 0 || c.Rejected != 0 {
					t.Fatalf("counters %+v", c)
				}
			})

			t.Run("WrongKeyNeverHits", func(t *testing.T) {
				h := mk(t)
				good := key(fpA, 2, 1)
				if err := h.b.Put(good, []byte(`{"index":2}`)); err != nil {
					t.Fatal(err)
				}
				for name, forged := range map[string]Key{
					"wrong-seed":  key(fpA, 2, 99),
					"wrong-index": key(fpA, 5, 1),
					"wrong-arch":  {Fingerprint: fpA, Index: 2, Seed: 1, Arch: "arm64"},
					"wrong-fp":    key(fpB, 2, 1),
				} {
					if _, ok := h.b.Get(forged); ok {
						t.Fatalf("%s: lookup satisfied by an entry written under another key", name)
					}
				}
			})

			t.Run("CorruptRejectedAndRecomputed", func(t *testing.T) {
				h := mk(t)
				k := key(fpA, 0, 7)
				payload := []byte(`{"index":0,"seconds":1.5}`)
				if err := h.b.Put(k, payload); err != nil {
					t.Fatal(err)
				}
				h.corrupt(t, k)
				if _, ok := h.b.Get(k); ok {
					t.Fatal("corrupted entry served")
				}
				if h.rejected() == 0 {
					t.Fatal("corruption not counted as rejected anywhere in the setup")
				}
				// Recompute path: a fresh Put fully restores the cell.
				if err := h.b.Put(k, payload); err != nil {
					t.Fatal(err)
				}
				if got, ok := h.b.Get(k); !ok || !bytes.Equal(got, payload) {
					t.Fatal("entry not recoverable after corruption")
				}
			})

			t.Run("ConcurrentSameKeyWriters", func(t *testing.T) {
				h := mk(t)
				const goroutines = 8
				const cells = 4
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < 10; i++ {
							k := key(fpA, i%cells, 7)
							payload := []byte(fmt.Sprintf(`{"index":%d}`, i%cells))
							if err := h.b.Put(k, payload); err != nil {
								t.Error(err)
								return
							}
							if got, ok := h.b.Get(k); !ok || !bytes.Equal(got, payload) {
								t.Errorf("goroutine %d: ok=%v payload=%s", g, ok, got)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				if h.rejected() != 0 {
					t.Fatalf("concurrent writers produced %d rejected entries", h.rejected())
				}
			})
		})
	}
}
