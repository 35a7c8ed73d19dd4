package store

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"
)

// maxEntryBytes bounds how much of a remote response (or an uploaded
// entry, server-side) is ever read: far above any real cell payload,
// far below anything that could pressure memory. A response truncated
// at the bound fails checksum verification and is rejected.
const maxEntryBytes = 64 << 20

// RemoteStore is a Backend over the HTTP cache protocol served by
// Handler: GET/PUT <base>/<fingerprint>/<arch>/<seed>/<index>,
// carrying the same entry encoding the on-disk store uses. It never
// trusts the wire: every GET body passes DecodeEntry's full
// verification (schema version, exact key-field match, payload SHA-256)
// before a byte is returned, so a corrupt, truncated, or adversarial
// response reads as a miss and the cell is recomputed.
//
// Transport failures (connection refused, timeouts, non-404 error
// statuses) also read as misses but are counted separately in
// Counters().Errors — TieredStore watches that signal to degrade to
// local-only during a remote outage instead of failing the run.
type RemoteStore struct {
	base     string
	client   *http.Client
	hits     atomic.Int64
	misses   atomic.Int64
	writes   atomic.Int64
	rejected atomic.Int64
	errors   atomic.Int64
}

var _ Backend = (*RemoteStore)(nil)

// NewRemote returns a RemoteStore speaking to a cache server at
// baseURL, e.g. "http://host:9610/cache" (a `fairbench cachesrv` or a
// `fairbench serve` daemon's /cache mount). A trailing slash is
// trimmed; the scheme must be http or https.
func NewRemote(baseURL string) (*RemoteStore, error) {
	u, err := url.Parse(strings.TrimRight(baseURL, "/"))
	if err != nil {
		return nil, fmt.Errorf("store: remote url %q: %w", baseURL, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("store: remote url %q: want http(s)://host[:port][/path]", baseURL)
	}
	return &RemoteStore{
		base:   u.String(),
		client: &http.Client{Timeout: 30 * time.Second},
	}, nil
}

func (r *RemoteStore) keyURL(k Key) (string, error) {
	p := EncodeKeyPath(k)
	if p == "" {
		return "", fmt.Errorf("store: key %+v is not addressable over HTTP", k)
	}
	return r.base + "/" + p, nil
}

// getChecked is Get with the transport outcome split out: err is non-nil
// only for transport-level failures (the remote could not answer), which
// the tiered store counts toward degradation; a clean 404 or a rejected
// body is (nil, false, nil).
func (r *RemoteStore) getChecked(k Key) ([]byte, bool, error) {
	u, err := r.keyURL(k)
	if err != nil {
		return nil, false, nil // unaddressable key: a miss, not an outage
	}
	resp, err := r.client.Get(u)
	if err != nil {
		r.errors.Add(1)
		return nil, false, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusNotFound:
		r.misses.Add(1)
		return nil, false, nil
	case resp.StatusCode != http.StatusOK:
		r.errors.Add(1)
		return nil, false, fmt.Errorf("store: remote GET %s: status %d", u, resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxEntryBytes))
	if err != nil {
		r.errors.Add(1)
		return nil, false, err
	}
	payload, err := DecodeEntry(k, data)
	if err != nil {
		// The remote answered, but with bytes that fail verification:
		// never merge them — reject and recompute.
		r.rejected.Add(1)
		return nil, false, nil
	}
	r.hits.Add(1)
	return payload, true, nil
}

// Get returns the verified payload cached under k on the remote, or
// ok=false on a miss, a transport failure, or a response that fails
// verification.
func (r *RemoteStore) Get(k Key) ([]byte, bool) {
	payload, ok, _ := r.getChecked(k)
	return payload, ok
}

func (r *RemoteStore) putChecked(k Key, payload []byte) error {
	u, err := r.keyURL(k)
	if err != nil {
		return err
	}
	data, err := EncodeEntry(k, payload)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, u, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		r.errors.Add(1)
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		r.errors.Add(1)
		return fmt.Errorf("store: remote PUT %s: status %d", u, resp.StatusCode)
	}
	r.writes.Add(1)
	return nil
}

// Put uploads payload under k as a full entry (checksum and key fields
// included) so the server can verify before storing — both ends check,
// neither trusts the wire.
func (r *RemoteStore) Put(k Key, payload []byte) error {
	return r.putChecked(k, payload)
}

// Counters returns the handle's in-memory access statistics.
func (r *RemoteStore) Counters() Counters {
	return Counters{
		Hits:     r.hits.Load(),
		Misses:   r.misses.Load(),
		Writes:   r.writes.Load(),
		Rejected: r.rejected.Load(),
		Errors:   r.errors.Load(),
	}
}
