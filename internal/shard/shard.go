// Package shard lets one experiment job grid fan across processes or
// hosts and come back together deterministically. It is deliberately
// generic: it knows nothing about approaches, datasets, or metrics — only
// about a grid of `total` jobs identified by a fingerprint, split into
// contiguous index ranges, with each range's results carried in a
// JSON-serializable envelope.
//
// The determinism contract extends internal/runner's: a grid cell's
// result depends only on its global job index and the grid's spec (which
// the fingerprint hashes), never on which process computed it. Under that
// contract Merge reassembles the exact rows a single-process run would
// have produced, in the same order — the shard-equivalence tests in
// internal/experiments verify this for every experiment driver.
package shard

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Version is the envelope schema version. Decode rejects envelopes from a
// different version rather than guessing at field semantics.
const Version = 1

// Range is one contiguous, half-open slice [Start, End) of a grid's job
// index space.
type Range struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// Len returns the number of jobs in the range.
func (r Range) Len() int { return r.End - r.Start }

// Plan splits a grid of n jobs into k contiguous ranges covering [0, n)
// in order. Ranges are balanced: the first n%k shards hold one extra job.
// When k > n the trailing shards are empty — still valid, so a fixed
// shard topology can be reused across grids of any size.
func Plan(n, k int) ([]Range, error) {
	if n < 0 {
		return nil, fmt.Errorf("shard: negative job count %d", n)
	}
	if k <= 0 {
		return nil, fmt.Errorf("shard: shard count %d, want >= 1", k)
	}
	base, extra := n/k, n%k
	out := make([]Range, k)
	start := 0
	for i := range out {
		size := base
		if i < extra {
			size++
		}
		out[i] = Range{Start: start, End: start + size}
		start += size
	}
	return out, nil
}

// PlanAligned is Plan with shard boundaries constrained to multiples of
// align: it balances the n/align blocks across the k shards, so a block
// of align consecutive jobs never straddles two shards. Grids whose
// post-pass combines measurements within a block — the pure-timing
// scalability grids subtract a per-slice baseline column from the other
// columns of the same slice — need this so a slice is always timed on a
// single machine. n must be a multiple of align.
func PlanAligned(n, k, align int) ([]Range, error) {
	if align <= 1 {
		return Plan(n, k)
	}
	if n%align != 0 {
		return nil, fmt.Errorf("shard: job count %d not a multiple of alignment %d", n, align)
	}
	blocks, err := Plan(n/align, k)
	if err != nil {
		return nil, err
	}
	for i := range blocks {
		blocks[i].Start *= align
		blocks[i].End *= align
	}
	return blocks, nil
}

// PlanCacheAware partitions [0, n) into contiguous aligned ranges for a
// grid some of whose cells a result cache can already serve. uncached(b)
// reports how many of block b's align cells are NOT cached (0..align).
// The plan has two kinds of range:
//
//   - fully-cached ranges (uncached count 0): every maximal run of
//     blocks with no uncached cells becomes its own range, so a
//     scheduler can serve it straight from the cache instead of
//     assigning it to a host;
//   - work ranges: the remaining segments, split greedily so each range
//     carries about ceil(totalUncached/k) uncached cells — balance by
//     work still owed, not by raw cell count. A work range always starts
//     on a block with uncached cells, so no assigned range is ever
//     fully cached.
//
// The returned counts[i] is the uncached cell count of ranges[i]; the
// ranges partition [0, n) in order, with boundaries on multiples of
// align. With nothing cached the plan degrades to ~Plan(n, k); with
// everything cached it is a single zero-work range. n == 0 yields an
// empty plan.
func PlanCacheAware(n, k, align int, uncached func(block int) int) (ranges []Range, counts []int, err error) {
	if align <= 1 {
		align = 1
	}
	if n < 0 {
		return nil, nil, fmt.Errorf("shard: negative job count %d", n)
	}
	if k <= 0 {
		return nil, nil, fmt.Errorf("shard: shard count %d, want >= 1", k)
	}
	if n%align != 0 {
		return nil, nil, fmt.Errorf("shard: job count %d not a multiple of alignment %d", n, align)
	}
	if n == 0 {
		return nil, nil, nil
	}
	nb := n / align
	w := make([]int, nb)
	total := 0
	for b := range w {
		w[b] = uncached(b)
		if w[b] < 0 || w[b] > align {
			return nil, nil, fmt.Errorf("shard: block %d reports %d uncached cells of %d", b, w[b], align)
		}
		total += w[b]
	}
	if total == 0 {
		return []Range{{Start: 0, End: n}}, []int{0}, nil
	}
	target := (total + k - 1) / k
	emit := func(startBlock, endBlock, uncached int) {
		ranges = append(ranges, Range{Start: startBlock * align, End: endBlock * align})
		counts = append(counts, uncached)
	}
	for b := 0; b < nb; {
		if w[b] == 0 {
			start := b
			for b < nb && w[b] == 0 {
				b++
			}
			emit(start, b, 0)
			continue
		}
		start, acc := b, 0
		for b < nb && w[b] > 0 {
			acc += w[b]
			b++
			if acc >= target && b < nb && w[b] > 0 {
				emit(start, b, acc)
				start, acc = b, 0
			}
		}
		emit(start, b, acc)
	}
	return ranges, counts, nil
}

// Fingerprint hashes a grid's identity: its canonical spec encoding plus
// its total job count. Two runs may only be merged when their
// fingerprints match — equal fingerprints mean the same experiment,
// dataset, seed, and grid shape, so cell i is the same computation in
// both.
func Fingerprint(spec []byte, total int) string {
	h := sha256.New()
	fmt.Fprintf(h, "fairbench-grid-v%d\n%d\n", Version, total)
	h.Write(spec)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Envelope is the partial result of one shard of a grid run: the rows it
// computed, the global job indices they belong to, and enough identity
// (spec, seed, fingerprint) for Merge to validate that all parts came
// from the same grid definition.
type Envelope struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	// Spec is the canonical encoding of the grid definition (the bytes
	// Fingerprint hashed), carried so the merging process can rebuild the
	// grid without out-of-band state.
	Spec json.RawMessage `json:"spec"`
	// Arch records GOARCH of the producing process. Float arithmetic is
	// architecture-sensitive (e.g. FMA contraction on arm64), so the
	// bit-identical merge contract only holds within one architecture;
	// Merge rejects mixed-arch sets rather than silently passing through
	// low-bit drift.
	Arch string `json:"arch"`
	Seed int64  `json:"seed"`
	// Shard/Shards record the plan position (shard Shard of Shards);
	// Total is the whole grid's job count.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	Total  int `json:"total"`
	// Indices[j] is the global job index of Rows[j].
	Indices []int             `json:"indices"`
	Rows    []json.RawMessage `json:"rows"`
	// Cached lists the global job indices (a subset of Indices) whose
	// rows were served from a result cache rather than computed by the
	// producing process — per-cell provenance that lets a coordinator
	// verify claims like "this warm re-run computed nothing". Absent on
	// envelopes from cacheless runs.
	Cached []int `json:"cached,omitempty"`
}

// Validate checks an envelope's internal consistency.
func (e *Envelope) Validate() error {
	switch {
	case e.Version != Version:
		return fmt.Errorf("shard: envelope version %d, want %d", e.Version, Version)
	case e.Fingerprint == "":
		return fmt.Errorf("shard: envelope has no fingerprint")
	case e.Shards <= 0 || e.Shard < 0 || e.Shard >= e.Shards:
		return fmt.Errorf("shard: invalid plan position %d/%d", e.Shard, e.Shards)
	case e.Arch == "":
		return fmt.Errorf("shard: envelope records no architecture")
	case e.Total < 0:
		return fmt.Errorf("shard: negative total %d", e.Total)
	case len(e.Indices) != len(e.Rows):
		return fmt.Errorf("shard: %d indices for %d rows", len(e.Indices), len(e.Rows))
	}
	for _, idx := range e.Indices {
		if idx < 0 || idx >= e.Total {
			return fmt.Errorf("shard: job index %d outside grid [0,%d)", idx, e.Total)
		}
	}
	if len(e.Cached) > 0 {
		have := make(map[int]bool, len(e.Indices))
		for _, idx := range e.Indices {
			have[idx] = true
		}
		for _, idx := range e.Cached {
			if !have[idx] {
				return fmt.Errorf("shard: cached job %d not among the envelope's indices", idx)
			}
		}
	}
	return nil
}

// VerifyFingerprint recomputes the fingerprint from the envelope's own
// spec bytes and job count and compares it to the recorded one. The spec
// is compacted first, so an envelope that round-tripped through an
// indenting encoder still verifies, while an envelope whose fingerprint
// was forged — or whose spec or total was altered after signing — is
// rejected. MergeNamed runs this check on every envelope, which is what
// makes arbitrary decoded bytes unmergeable: a fingerprint can only be
// satisfied by the spec that hashes to it.
func (e *Envelope) VerifyFingerprint() error {
	spec, err := e.compactSpec()
	if err != nil {
		return err
	}
	if got := Fingerprint(spec, e.Total); got != e.Fingerprint {
		return fmt.Errorf("shard: fingerprint mismatch: envelope records %.12s… but its own spec materializes %.12s… — corrupt or forged envelope",
			e.Fingerprint, got)
	}
	return nil
}

// compactSpec returns the envelope's spec without insignificant
// whitespace: the bytes its fingerprint hashed, whichever encoder last
// wrote the envelope (Encode re-indents the spec).
func (e *Envelope) compactSpec() ([]byte, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, e.Spec); err != nil {
		return nil, fmt.Errorf("shard: envelope spec is not valid JSON: %w", err)
	}
	return compact.Bytes(), nil
}

// Decode parses and validates a serialized envelope.
func Decode(data []byte) (*Envelope, error) {
	var e Envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("shard: decoding envelope: %w", err)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return &e, nil
}

// Encode serializes an envelope after validating it.
func (e *Envelope) Encode() ([]byte, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(e, "", "  ")
}

// Merged is the reassembled output of a complete shard set: every row of
// the grid in job-index order, plus the common identity fields.
type Merged struct {
	Fingerprint string
	Spec        json.RawMessage
	Arch        string
	Total       int
	// Rows[i] is the result of global job i.
	Rows []json.RawMessage
}

// Merge reassembles shard envelopes into the full grid's rows in job
// order. It rejects mismatched fingerprints (parts of different grids),
// disagreeing seeds/totals/shard counts, duplicate job indices, and
// incomplete coverage — a merge either reproduces exactly the
// single-process result set or fails loudly.
func Merge(envs []*Envelope) (*Merged, error) { return MergeNamed(envs, nil) }

// MergeNamed is Merge with provenance for error messages: names[i] (when
// provided — typically the envelope's file path) labels envs[i] in every
// validation failure, so a user merging dozens of part files learns
// which file is bad, not just that one is. An incomplete set fails with
// the list of shard indices still missing, the actionable unit for
// re-running or resuming.
func MergeNamed(envs []*Envelope, names []string) (*Merged, error) {
	if len(envs) == 0 {
		return nil, fmt.Errorf("shard: no envelopes to merge")
	}
	label := func(i int) string {
		if i < len(names) && names[i] != "" {
			return names[i]
		}
		return fmt.Sprintf("envelope %d", i)
	}
	first := envs[0]
	var firstSpec []byte
	for i, e := range envs {
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("shard: %s: %w", label(i), err)
		}
		// Each envelope's fingerprint must be satisfied by its own spec
		// bytes, not merely agree with its neighbours': agreeing forged
		// envelopes would otherwise merge.
		if err := e.VerifyFingerprint(); err != nil {
			return nil, fmt.Errorf("%s: %w", label(i), err)
		}
		// A decoded envelope carries its spec re-indented, so specs are
		// compared compacted: a set mixing decoded and in-memory
		// envelopes of one grid merges.
		spec, _ := e.compactSpec() // VerifyFingerprint compacted it already
		if i == 0 {
			firstSpec = spec
		}
		switch {
		case e.Fingerprint != first.Fingerprint:
			return nil, fmt.Errorf("shard: fingerprint mismatch: %s has %.12s…, %s has %.12s… — parts of different grids",
				label(0), first.Fingerprint, label(i), e.Fingerprint)
		case e.Seed != first.Seed:
			return nil, fmt.Errorf("shard: seed mismatch: %s has %d, %s has %d", label(0), first.Seed, label(i), e.Seed)
		case e.Arch != first.Arch:
			return nil, fmt.Errorf("shard: architecture mismatch: %s ran on %s, %s on %s — float results are only bit-identical within one architecture",
				label(0), first.Arch, label(i), e.Arch)
		case e.Total != first.Total:
			return nil, fmt.Errorf("shard: total mismatch: %s has %d, %s has %d", label(0), first.Total, label(i), e.Total)
		case e.Shards != first.Shards:
			return nil, fmt.Errorf("shard: plan mismatch: %s is %d-way, %s is %d-way", label(0), first.Shards, label(i), e.Shards)
		case !bytes.Equal(spec, firstSpec):
			// The fingerprint hashes the spec, so envelopes that agree on
			// the fingerprint but not the bytes are corrupt or forged.
			return nil, fmt.Errorf("shard: spec mismatch between %s and %s", label(0), label(i))
		}
	}
	order := make([]int, len(envs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return envs[order[a]].Shard < envs[order[b]].Shard })
	rows := make([]json.RawMessage, first.Total)
	owner := make([]int, first.Total) // envelope position that delivered each job
	seen := make([]bool, first.Total)
	for _, ei := range order {
		e := envs[ei]
		for j, idx := range e.Indices {
			if seen[idx] {
				return nil, fmt.Errorf("shard: job %d delivered twice, by %s and %s",
					idx, label(owner[idx]), label(ei))
			}
			seen[idx] = true
			owner[idx] = ei
			rows[idx] = e.Rows[j]
		}
	}
	if missing := missingShards(envs, seen, first); missing != "" {
		return nil, fmt.Errorf("shard: incomplete merge set: %s — run the missing shard(s) and merge again, or resume the run directory", missing)
	}
	return &Merged{
		Fingerprint: first.Fingerprint,
		Spec:        first.Spec,
		Arch:        first.Arch,
		Total:       first.Total,
		Rows:        rows,
	}, nil
}

// missingShards summarizes incomplete coverage in terms of the shard
// indices a user would re-run: the plan positions absent from the set.
// When every plan position is present yet jobs are still uncovered (an
// envelope dropped rows), it falls back to naming the missing jobs.
func missingShards(envs []*Envelope, seen []bool, first *Envelope) string {
	var missingJobs []int
	for idx, ok := range seen {
		if !ok {
			missingJobs = append(missingJobs, idx)
		}
	}
	if len(missingJobs) == 0 {
		return ""
	}
	present := make(map[int]bool, len(envs))
	for _, e := range envs {
		present[e.Shard] = true
	}
	var absent []string
	for i := 0; i < first.Shards; i++ {
		if !present[i] {
			absent = append(absent, fmt.Sprintf("%d", i))
		}
	}
	if len(absent) > 0 {
		return fmt.Sprintf("missing shard(s) %s of %d", strings.Join(absent, ", "), first.Shards)
	}
	return fmt.Sprintf("all %d shards present but %d job(s) uncovered (first: job %d)",
		first.Shards, len(missingJobs), missingJobs[0])
}
