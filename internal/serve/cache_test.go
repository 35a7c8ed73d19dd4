package serve

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"fairbench/internal/engine"
	"fairbench/internal/store"
)

// TestServeCacheEndpointRoundTrip drives the daemon's /cache mount with
// a raw HTTP client: PUT a verified entry, HEAD and GET it back, watch
// a forged key miss and a corrupt upload bounce, and find the protocol
// counters in /metrics.
func TestServeCacheEndpointRoundTrip(t *testing.T) {
	_, ts := newServer(t, Config{Run: engine.RunOptions{CacheDir: t.TempDir()}})
	k := store.Key{Fingerprint: strings.Repeat("ab", 32), Index: 3, Seed: 42, Arch: "amd64"}
	payload := []byte(`{"index":3,"row":{"acc":0.9}}`)
	entry, err := store.EncodeEntry(k, payload)
	if err != nil {
		t.Fatal(err)
	}
	keyURL := ts.URL + "/cache/" + store.EncodeKeyPath(k)

	do := func(method, url string, body []byte) int {
		t.Helper()
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := do(http.MethodHead, keyURL, nil); code != http.StatusNotFound {
		t.Fatalf("HEAD before PUT: %d, want 404", code)
	}
	if code := do(http.MethodPut, keyURL, entry); code != http.StatusNoContent {
		t.Fatalf("PUT: %d, want 204", code)
	}
	if code := do(http.MethodHead, keyURL, nil); code != http.StatusOK {
		t.Fatalf("HEAD after PUT: %d, want 200", code)
	}

	// GET must return wire bytes that independently verify for the key.
	code, body, _ := get(t, keyURL)
	if code != http.StatusOK {
		t.Fatalf("GET: %d, want 200", code)
	}
	got, err := store.DecodeEntry(k, []byte(body))
	if err != nil {
		t.Fatalf("GET body fails verification: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("GET payload %s, want %s", got, payload)
	}

	// A lookup under different key fields never sees the entry.
	forged := k
	forged.Seed = 99
	if code := do(http.MethodGet, ts.URL+"/cache/"+store.EncodeKeyPath(forged), nil); code != http.StatusNotFound {
		t.Fatalf("forged-key GET: %d, want 404", code)
	}
	// A corrupt upload bounces with 422 and never lands.
	if code := do(http.MethodPut, ts.URL+"/cache/"+store.EncodeKeyPath(forged), entry); code != http.StatusUnprocessableEntity {
		t.Fatalf("mis-keyed PUT: %d, want 422", code)
	}
	if code := do(http.MethodPut, keyURL, []byte(`{"version":1,"garbage":`)); code != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt PUT: %d, want 422", code)
	}
	// Malformed keys are a 400, not a guess.
	for _, method := range []string{http.MethodGet, http.MethodHead} {
		if code := do(method, ts.URL+"/cache/UPPER/amd64/1/1", nil); code != http.StatusBadRequest {
			t.Fatalf("malformed-key %s: %d, want 400", method, code)
		}
	}

	code, metrics, _ := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	// hits: HEAD-after-PUT + GET; misses: HEAD-before-PUT + forged GET.
	for _, want := range []string{
		"fairbench_cache_http_hits_total 2",
		"fairbench_cache_http_misses_total 2",
		"fairbench_cache_http_writes_total 1",
		"fairbench_store_rejected_total 0",
		"fairbench_store_remote_degraded_total 0",
		"fairbench_store_entries 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestServeWithoutCacheDirHasNoCacheMount: a daemon with no cache
// directory has nothing to share — the /cache prefix must not resolve.
func TestServeWithoutCacheDirHasNoCacheMount(t *testing.T) {
	_, ts := newServer(t, Config{})
	k := store.Key{Fingerprint: strings.Repeat("ab", 32), Index: 0, Seed: 1, Arch: "amd64"}
	code, _, _ := get(t, ts.URL+"/cache/"+store.EncodeKeyPath(k))
	if code != http.StatusNotFound {
		t.Fatalf("GET /cache on a cacheless daemon: %d, want 404", code)
	}
}
