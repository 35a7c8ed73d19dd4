// Package store is the content-addressed result cache behind resumable
// grid execution: a map from a grid cell's full identity — (grid
// fingerprint, cell index, seed, GOARCH) — to the serialized cell
// payload it produced. Because a fingerprint hashes the normalized spec
// and the grid shape, and every cell is a pure function of (spec, index)
// on one architecture, a cached payload is exactly the bytes a fresh
// computation would yield; re-running any figure therefore only computes
// cache-miss cells while staying byte-identical to a cold run.
//
// The package provides three Backend implementations sharing one entry
// codec and one verification discipline:
//
//   - DiskStore: the on-disk cache (the original backend). Entries are
//     written atomically (temp file + rename in the destination
//     directory), so a SIGKILL mid-write can never leave a half-entry
//     that a later run would trust.
//   - RemoteStore: an HTTP client for the same entries served by
//     Handler (mounted under /cache/ on `fairbench serve` or the
//     standalone `fairbench cachesrv`), so a fleet and CI share one
//     warm cache across machines and runs.
//   - TieredStore: local disk in front of a remote — read-through with
//     promotion, write-through on compute, and degradation to
//     local-only when the remote is unreachable.
//
// Reads verify integrity end to end regardless of backend: the entry's
// recorded key fields must equal the requested key and the payload must
// match its recorded SHA-256, so a corrupted, truncated, or mis-filed
// entry — on disk or arriving over the wire — is rejected rather than
// served; the cell is simply recomputed. Lookups against a different
// seed, index, fingerprint, or architecture can never be satisfied by an
// entry written under another key, because the key is both the address
// and part of the verified content.
package store

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
)

// Version is the entry schema version; reads reject entries from another
// version rather than guessing at field semantics.
const Version = 1

// Key is the full identity of one cached grid cell.
type Key struct {
	// Fingerprint is the grid's shard fingerprint (hex SHA-256 of the
	// canonical spec plus the job count; see internal/shard.Fingerprint).
	Fingerprint string
	// Index is the cell's global job index within the grid.
	Index int
	// Seed is the grid's experiment seed. It is already hashed into the
	// fingerprint; keying on it again means a poisoned or mis-filed entry
	// must forge two independent records to satisfy a wrong-seed lookup.
	Seed int64
	// Arch is the GOARCH the payload was computed on. Float arithmetic is
	// architecture-sensitive, so entries never cross architectures: a
	// mixed-arch fleet sharing one store recomputes every cell per
	// architecture rather than serving subtly different floats. That
	// trade is silent at this layer by design — engine reports and the
	// serve daemon's /runs/{id} status surface the coordinator's Arch so
	// operators can see which partition of the store a run hits.
	Arch string
}

func (k Key) validate() error {
	switch {
	case len(k.Fingerprint) < 16:
		return fmt.Errorf("store: fingerprint %q too short to address", k.Fingerprint)
	case k.Index < 0:
		return fmt.Errorf("store: negative cell index %d", k.Index)
	case k.Arch == "":
		return fmt.Errorf("store: key has no architecture")
	}
	return nil
}

// EncodeKeyPath renders k as the canonical URL path suffix of the HTTP
// cache protocol: fingerprint/arch/seed/index, four slash-separated
// segments with no escaping needed (the fingerprint is lowercase hex,
// the architecture a GOARCH token, seed and index plain decimals). The
// empty string is returned for keys that are not path-safe; such keys
// never address a cached cell anyway.
func EncodeKeyPath(k Key) string {
	if ParseKeyFields(k.Fingerprint, k.Arch,
		strconv.FormatInt(k.Seed, 10), strconv.Itoa(k.Index)) != (Key{}) {
		return fmt.Sprintf("%s/%s/%d/%d", k.Fingerprint, k.Arch, k.Seed, k.Index)
	}
	return ""
}

// DecodeKeyPath parses a path in EncodeKeyPath's form back into a Key.
// It accepts exactly the canonical rendering — four validated segments,
// decimals without leading zeros or signs beyond a leading minus on the
// seed — so decode(encode(k)) == k and encode(decode(p)) == p for every
// accepted p. Anything else is an error, never a guess.
func DecodeKeyPath(p string) (Key, error) {
	seg := strings.Split(p, "/")
	if len(seg) != 4 {
		return Key{}, fmt.Errorf("store: key path %q: want fingerprint/arch/seed/index", p)
	}
	k := ParseKeyFields(seg[0], seg[1], seg[2], seg[3])
	if k == (Key{}) {
		return Key{}, fmt.Errorf("store: key path %q: invalid field", p)
	}
	return k, nil
}

// ParseKeyFields validates and assembles the four key fields from their
// string forms (as they appear in a cache URL), returning the zero Key
// if any field is malformed. The fingerprint must be lowercase hex of at
// least 16 characters, the architecture a [a-z0-9] token, and seed and
// index canonical decimals (index non-negative).
func ParseKeyFields(fp, arch, seed, index string) Key {
	if len(fp) < 16 || len(fp) > 128 || !isLowerHex(fp) || !isArchToken(arch) {
		return Key{}
	}
	s, err := strconv.ParseInt(seed, 10, 64)
	if err != nil || strconv.FormatInt(s, 10) != seed {
		return Key{}
	}
	i, err := strconv.Atoi(index)
	if err != nil || i < 0 || strconv.Itoa(i) != index {
		return Key{}
	}
	return Key{Fingerprint: fp, Index: i, Seed: s, Arch: arch}
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return s != ""
}

func isArchToken(s string) bool {
	if s == "" || len(s) > 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'z') {
			return false
		}
	}
	return true
}

// entry is the serialized form of one cached cell — identical on disk
// and on the wire: the key fields it was written under plus the payload
// and its checksum.
type entry struct {
	Version     int             `json:"version"`
	Fingerprint string          `json:"fingerprint"`
	Index       int             `json:"index"`
	Seed        int64           `json:"seed"`
	Arch        string          `json:"arch"`
	SHA256      string          `json:"sha256"`
	Payload     json.RawMessage `json:"payload"`
}

// EncodeEntry serializes payload under k in the store's entry format —
// the same bytes DiskStore writes to disk and the HTTP protocol carries.
func EncodeEntry(k Key, payload []byte) ([]byte, error) {
	if err := k.validate(); err != nil {
		return nil, err
	}
	e := entry{
		Version:     Version,
		Fingerprint: k.Fingerprint,
		Index:       k.Index,
		Seed:        k.Seed,
		Arch:        k.Arch,
		SHA256:      payloadSum(payload),
		Payload:     json.RawMessage(payload),
	}
	data, err := json.Marshal(&e)
	if err != nil {
		return nil, fmt.Errorf("store: encoding entry: %w", err)
	}
	return data, nil
}

// DecodeEntry is the single verification gate every read goes through:
// it decodes data as an entry and returns the payload only if the schema
// version matches, the recorded key fields equal k exactly, and the
// payload matches its recorded SHA-256. Any other bytes — truncated,
// bit-flipped, mis-keyed, or adversarial — are an error, never a payload.
func DecodeEntry(k Key, data []byte) ([]byte, error) {
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("store: undecodable entry: %w", err)
	}
	switch {
	case e.Version != Version:
		return nil, fmt.Errorf("store: entry version %d, want %d", e.Version, Version)
	case e.Fingerprint != k.Fingerprint || e.Index != k.Index ||
		e.Seed != k.Seed || e.Arch != k.Arch:
		return nil, fmt.Errorf("store: entry recorded under different key fields")
	case e.SHA256 != payloadSum(e.Payload):
		return nil, fmt.Errorf("store: payload checksum mismatch")
	}
	return e.Payload, nil
}

// Counters are the in-memory access statistics of one Backend handle.
type Counters struct {
	// Hits counts Get calls served from a verified entry.
	Hits int64
	// Misses counts Get calls with no entry in the backend.
	Misses int64
	// Writes counts successful Put calls.
	Writes int64
	// Rejected counts entries that were present but refused verification:
	// corrupted, truncated, wrong schema version, or recorded under a
	// different key. A rejected read is a miss — the cell is recomputed —
	// but a nonzero count means bytes in the cache (or on the wire) were
	// wrong, which is worth surfacing; engine reports and the serve
	// daemon's /metrics do.
	Rejected int64
	// Errors counts transport-level remote failures (connection refused,
	// timeouts, 5xx responses). Always zero for a DiskStore; for tiered
	// stores it is the signal behind degradation to local-only.
	Errors int64
}

// Backend is a verified result cache: the contract shared by DiskStore,
// RemoteStore, and TieredStore, and the type the execution layers
// (experiments, dispatch, sched, engine) plan and serve against. Get is
// its one read: cache-aware planning probes cells with it too. Every
// implementation guarantees that Get returns only payloads that passed
// DecodeEntry's full verification for exactly the requested key, and
// that all methods are safe for concurrent use.
//
// Callers hold a nil Backend (untyped nil interface) to mean "caching
// disabled"; construct backends with Open/NewRemote/NewTiered or the
// configuration-driven OpenBackend, never by wrapping a possibly-nil
// concrete pointer in the interface.
type Backend interface {
	// Get returns the verified payload cached under k, or ok=false on a
	// miss. Entries that fail verification read as misses (and count as
	// Rejected), so the caller recomputes instead of trusting them.
	Get(k Key) ([]byte, bool)
	// Put caches payload under k.
	Put(k Key, payload []byte) error
	// Counters returns the handle's in-memory access statistics.
	Counters() Counters
}

// Stats combines a DiskStore handle's counters with a walk of the cache
// directory.
type Stats struct {
	Counters
	// Entries is the number of cell entries on disk.
	Entries int
	// Bytes is their total size.
	Bytes int64
	// Fingerprints is the number of distinct grids with at least one
	// cached cell.
	Fingerprints int
}

// DiskStore is a Backend over one cache directory. It is safe for
// concurrent use by any number of goroutines and — because writes are
// atomic renames of fully-written temp files — by concurrent processes
// sharing the directory.
type DiskStore struct {
	dir      string
	hits     atomic.Int64
	misses   atomic.Int64
	writes   atomic.Int64
	rejected atomic.Int64
}

var _ Backend = (*DiskStore)(nil)

// Open creates (if needed) and opens a cache directory.
func Open(dir string) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty cache directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "cells"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// OpenBackend builds the Backend a run's configuration asks for: a
// DiskStore for a local cache directory, a RemoteStore for a shared
// cache URL, a TieredStore (disk in front, remote behind) when both are
// set, and an untyped nil Backend — caching disabled — when neither is.
// It is the one constructor call sites should use when either input may
// be empty, precisely so that "no cache" is interface-nil rather than a
// typed nil pointer smuggled into the interface.
func OpenBackend(dir, remoteURL string) (Backend, error) {
	switch {
	case dir == "" && remoteURL == "":
		return nil, nil
	case remoteURL == "":
		return Open(dir)
	case dir == "":
		return NewRemote(remoteURL)
	}
	local, err := Open(dir)
	if err != nil {
		return nil, err
	}
	remote, err := NewRemote(remoteURL)
	if err != nil {
		return nil, err
	}
	return NewTiered(local, remote), nil
}

// Dir returns the cache directory this handle operates on.
func (s *DiskStore) Dir() string { return s.dir }

// path lays entries out as
// cells/<fp[:2]>/<fp>/<arch>/s<seed>/<index>.json: the two-byte fan-out
// keeps directory sizes bounded, and grouping by fingerprint first makes
// GC of a whole grid a single RemoveAll.
func (s *DiskStore) path(k Key) string {
	return filepath.Join(s.dir, "cells", k.Fingerprint[:2], k.Fingerprint,
		k.Arch, fmt.Sprintf("s%d", k.Seed), fmt.Sprintf("%d.json", k.Index))
}

func payloadSum(payload []byte) string {
	return fmt.Sprintf("%x", sha256.Sum256(payload))
}

// Get returns the verified payload cached under k, or ok=false on a miss.
// An entry that exists but fails verification — undecodable, truncated,
// wrong schema version, checksum mismatch, or recorded under key fields
// that differ from k — counts as Rejected, is removed best-effort, and
// reads as a miss, so the caller recomputes instead of trusting it.
func (s *DiskStore) Get(k Key) ([]byte, bool) {
	if k.validate() != nil {
		return nil, false
	}
	p := s.path(k)
	data, err := os.ReadFile(p)
	if err != nil {
		s.misses.Add(1)
		return nil, false
	}
	payload, err := DecodeEntry(k, data)
	if err != nil {
		s.rejected.Add(1)
		os.Remove(p) // quarantine by deletion; the cell will be recomputed
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

// Put caches payload under k, atomically: the entry is fully written to a
// temp file in the destination directory and renamed into place, so
// concurrent writers of the same cell (which, by the determinism
// contract, carry identical payloads) and killed processes are both
// harmless.
func (s *DiskStore) Put(k Key, payload []byte) error {
	data, err := EncodeEntry(k, payload)
	if err != nil {
		return err
	}
	p := s.path(k)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := WriteFileAtomic(p, data); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.writes.Add(1)
	return nil
}

// WriteFileAtomic writes data to path via a same-directory temp file and
// rename, so path never holds a partial write — the primitive behind
// every durable artifact of the resumable-execution layer (cache
// entries here; manifests and envelope part files in internal/dispatch).
func WriteFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Counters returns the handle's in-memory access statistics.
func (s *DiskStore) Counters() Counters {
	return Counters{
		Hits:     s.hits.Load(),
		Misses:   s.misses.Load(),
		Writes:   s.writes.Load(),
		Rejected: s.rejected.Load(),
	}
}

// Stats walks the cache directory and reports entry count, total bytes,
// and distinct fingerprints, alongside the handle's counters.
func (s *DiskStore) Stats() (Stats, error) {
	st := Stats{Counters: s.Counters()}
	fps := map[string]bool{}
	err := s.walkFingerprints(func(fp, dir string) error {
		return filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			fps[fp] = true
			st.Entries++
			st.Bytes += info.Size()
			return nil
		})
	})
	st.Fingerprints = len(fps)
	return st, err
}

// GC removes every cached grid whose fingerprint the keep predicate does
// not claim, and returns how many grids were dropped. Grids still in use
// (keep returns true) are untouched, entry by entry.
func (s *DiskStore) GC(keep func(fingerprint string) bool) (removed int, err error) {
	err = s.walkFingerprints(func(fp, dir string) error {
		if keep != nil && keep(fp) {
			return nil
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		removed++
		return nil
	})
	return removed, err
}

// walkFingerprints visits every <fp> directory under cells/<xx>/.
func (s *DiskStore) walkFingerprints(visit func(fp, dir string) error) error {
	root := filepath.Join(s.dir, "cells")
	fanout, err := os.ReadDir(root)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, fx := range fanout {
		if !fx.IsDir() {
			continue
		}
		fps, err := os.ReadDir(filepath.Join(root, fx.Name()))
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		for _, fp := range fps {
			if !fp.IsDir() {
				continue
			}
			if err := visit(fp.Name(), filepath.Join(root, fx.Name(), fp.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}
