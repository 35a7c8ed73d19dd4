package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"

	"fairbench/internal/shard"
	"fairbench/internal/store"
)

// This file binds the generic shard machinery (internal/shard) to typed
// experiment grids: planning a split, running one shard into an envelope,
// and merging envelopes back into driver-native output. The invariant the
// shard-equivalence tests pin down: for any Spec and any k,
//
//	MergeShards(RunShardContext(ctx, spec, 0, k, nil, 0), …,
//	            RunShardContext(ctx, spec, k-1, k, nil, 0))
//
// equals Open(spec).RunAll() except for the wall-time fields — whether the
// shards ran in one process, k processes, or k hosts.

// PlanShards reports the contiguous job ranges a k-way split of the
// spec's grid produces. Empty trailing ranges (k > grid size) are valid;
// running them yields empty envelopes that merge cleanly. For the
// pure-timing fig8 grids the ranges align to whole dataset slices, so a
// slice's baseline and approach timings always come from one machine.
func PlanShards(spec Spec, k int) ([]shard.Range, error) {
	g, err := Open(spec)
	if err != nil {
		return nil, err
	}
	return shard.PlanAligned(g.Len(), k, g.alignment())
}

// ShardPlan is a cache-aware split of one grid: a partition of the job
// index space into contiguous aligned ranges, each annotated with how
// many of its cells the result store could not serve at plan time. It is
// what a scheduler places on hosts — fully-cached ranges (Uncached 0)
// never leave the coordinator, which materializes them straight from the
// store, and the remaining ranges are balanced by uncached cell count,
// so hosts share the work still owed rather than the raw index space.
type ShardPlan struct {
	// Spec is the normalized spec the plan was computed over.
	Spec Spec
	// Fingerprint is the grid's shard/cache fingerprint.
	Fingerprint string
	// Total is the grid's job count; the Ranges partition [0, Total).
	Total  int
	Ranges []shard.Range
	// Uncached[i] is how many of Ranges[i]'s cells had no verified cache
	// entry at plan time; 0 for a position ProbePlan did not probe.
	Uncached []int

	// specJSON is the grid's canonical spec encoding, kept so envelopes
	// served from the plan carry the same Spec bytes runPlanned would.
	specJSON []byte
	// payloads holds the verified cell payloads the store served during
	// planning, by cell index — the plan-time probe already read and
	// checked every cached entry end to end, so the coordinator can serve
	// fully-cached ranges from these bytes without re-reading the store.
	payloads map[int][]byte
}

// TotalUncached sums the uncached cells across the plan.
func (p *ShardPlan) TotalUncached() int {
	total := 0
	for _, u := range p.Uncached {
		total += u
	}
	return total
}

// PlanShardsCacheAware plans a split of the spec's grid targeting k work
// ranges, consulting the result store cell by cell at plan time: cells
// with verified cache entries weigh nothing, so the plan skips
// fully-cached stretches and balances the rest by work still owed (see
// shard.PlanCacheAware). A nil store plans every cell as uncached, which
// degrades to ordinary aligned planning. Probing verifies entries end to
// end, so a corrupt entry is rejected (and removed) at plan time exactly
// as it would be at run time — and because the probe already decoded
// every good entry, the plan keeps those payloads so ServeEnvelope can
// hand fully-cached ranges to the coordinator without a second store
// pass.
func PlanShardsCacheAware(spec Spec, k int, s store.Backend) (*ShardPlan, error) {
	g, p, err := newPlan(spec)
	if err != nil {
		return nil, err
	}
	align := g.alignment()
	uncached := func(block int) int {
		return p.probe(shard.Range{Start: block * align, End: (block + 1) * align}, s)
	}
	if p.Ranges, p.Uncached, err = shard.PlanCacheAware(g.Len(), k, align, uncached); err != nil {
		return nil, err
	}
	return p, nil
}

// ProbePlan is the plan of a recorded split: it keeps ranges as they are
// and probes the store, as PlanShardsCacheAware does, for the cells of
// the given plan positions only. A position left out (its part already
// delivered) counts 0 uncached and serves nothing. The ranges must
// partition the grid on aligned boundaries, as RunShardPlanned requires.
func ProbePlan(spec Spec, ranges []shard.Range, positions []int, s store.Backend) (*ShardPlan, error) {
	g, p, err := newPlan(spec)
	if err != nil {
		return nil, err
	}
	if err := validatePlan(g, ranges); err != nil {
		return nil, err
	}
	p.Ranges, p.Uncached = ranges, make([]int, len(ranges))
	for _, i := range positions {
		p.Uncached[i] = p.probe(ranges[i], s)
	}
	return p, nil
}

// newPlan opens the spec's grid and returns it with an empty plan of it.
func newPlan(spec Spec) (*Grid, *ShardPlan, error) {
	g, err := Open(spec)
	if err != nil {
		return nil, nil, err
	}
	fp, err := g.Fingerprint()
	if err != nil {
		return nil, nil, err
	}
	return g, &ShardPlan{Spec: g.Spec(), Fingerprint: fp, Total: g.Len(), specJSON: g.specJSON, payloads: map[int][]byte{}}, nil
}

// probe is the one cache probe loop behind both plans: it counts the
// cells of r the store cannot serve and keeps every verified payload.
// Store probing goes through Get, which checks each entry end to end, so
// a kept payload carries exactly the bytes a later cache read would. A
// nil store serves nothing, so every cell counts.
func (p *ShardPlan) probe(r shard.Range, s store.Backend) int {
	if s == nil {
		return r.Len()
	}
	n := 0
	for i := r.Start; i < r.End; i++ {
		payload, ok := s.Get(store.Key{Fingerprint: p.Fingerprint, Index: i, Seed: p.Spec.Seed, Arch: runtime.GOARCH})
		if !ok {
			n++
			continue
		}
		p.payloads[i] = payload
	}
	return n
}

// ServeEnvelope materializes plan position i as an envelope straight
// from the payloads captured at plan time — the single-pass plan+serve
// path: ranges the plan found fully cached never touch the store (or the
// grid) again. It reproduces RunShardPlanned's bytes exactly: each
// payload decodes to the cell the cache path would serve, is marked
// Cached, and is re-encoded by the same marshaller. ok is false when the
// plan was not built by a probe (a ShardPlan literal), the position is
// out of range, or any cell of the range is missing or fails to decode
// to its own index — callers then fall back to RunShardPlanned, which
// recomputes exactly as the cache path would on the same bad entry.
func (p *ShardPlan) ServeEnvelope(i int) (*shard.Envelope, bool) {
	if len(p.specJSON) == 0 || i < 0 || i >= len(p.Ranges) {
		return nil, false
	}
	env := &shard.Envelope{
		Version:     shard.Version,
		Fingerprint: p.Fingerprint,
		Spec:        json.RawMessage(p.specJSON),
		Arch:        runtime.GOARCH,
		Seed:        p.Spec.Seed,
		Shard:       i,
		Shards:      len(p.Ranges),
		Total:       p.Total,
	}
	r := p.Ranges[i]
	for idx := r.Start; idx < r.End; idx++ {
		payload, ok := p.payloads[idx]
		if !ok {
			return nil, false
		}
		var cell Cell
		if err := json.Unmarshal(payload, &cell); err != nil || cell.Index != idx {
			return nil, false
		}
		cell.Cached = true
		raw, err := json.Marshal(cell)
		if err != nil {
			return nil, false
		}
		env.Indices = append(env.Indices, idx)
		env.Rows = append(env.Rows, raw)
		env.Cached = append(env.Cached, idx)
	}
	return env, true
}

// RunShardContext executes shard i of a k-way split of the spec's grid
// and returns the serializable partial-result envelope. Each shard
// re-materializes the grid from the spec (datasets are synthesized from
// the spec's seed), so shards share no state and can run anywhere. With
// a result store, cells it verifies are served instead of computed and
// the envelope's Cached field records which ones; a nil store runs every
// cell cold. workers sizes the pool (<= 0 is one worker per CPU). A done
// ctx stops the pool promptly (no new cells start; in-flight cells
// finish) and the error wraps ctx.Err().
func RunShardContext(ctx context.Context, spec Spec, i, k int, s store.Backend, workers int) (*shard.Envelope, error) {
	g, err := Open(spec)
	if err != nil {
		return nil, err
	}
	g.SetCache(s)
	g.SetWorkers(workers)
	ranges, err := shard.PlanAligned(g.Len(), k, g.alignment())
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= k {
		return nil, fmt.Errorf("experiments: shard %d of %d out of range", i, k)
	}
	return runPlanned(ctx, g, ranges, i)
}

// RunShardPlanned executes ranges[i] of an explicit plan of the spec's
// grid — the execution half of cache-aware scheduling, where range
// boundaries come from a recorded plan (e.g. a scheduler manifest)
// rather than the uniform k-way split. The ranges must partition
// [0, grid len) contiguously on aligned boundaries; the envelope records
// plan position i of len(ranges), so a complete planned set merges
// through MergeShards exactly like a uniform one. A nil store runs
// every cell cold. A done ctx stops the range as it stops
// RunShardContext's.
func RunShardPlanned(ctx context.Context, spec Spec, ranges []shard.Range, i int, s store.Backend) (*shard.Envelope, error) {
	g, err := Open(spec)
	if err != nil {
		return nil, err
	}
	g.SetCache(s)
	if err := validatePlan(g, ranges); err != nil {
		return nil, err
	}
	if i < 0 || i >= len(ranges) {
		return nil, fmt.Errorf("experiments: planned range %d of %d out of range", i, len(ranges))
	}
	return runPlanned(ctx, g, ranges, i)
}

// validatePlan checks that ranges is a contiguous, aligned partition of
// the grid's job index space — the guard against running a drifted or
// hand-edited plan whose envelopes could never merge.
func validatePlan(g *Grid, ranges []shard.Range) error {
	if len(ranges) == 0 {
		return fmt.Errorf("experiments: empty shard plan for a %d-cell grid", g.Len())
	}
	align, prev := g.alignment(), 0
	for i, r := range ranges {
		if r.Start != prev || r.End < r.Start {
			return fmt.Errorf("experiments: plan range %d is [%d,%d), want to start at %d", i, r.Start, r.End, prev)
		}
		if r.Start%align != 0 || r.End%align != 0 {
			return fmt.Errorf("experiments: plan range %d [%d,%d) not aligned to %d", i, r.Start, r.End, align)
		}
		prev = r.End
	}
	if prev != g.Len() {
		return fmt.Errorf("experiments: plan covers [0,%d) of a %d-cell grid", prev, g.Len())
	}
	return nil
}

// runPlanned executes ranges[i] into an envelope at plan position
// i/len(ranges) — the shared body behind the uniform and cache-aware
// shard paths.
func runPlanned(ctx context.Context, g *Grid, ranges []shard.Range, i int) (*shard.Envelope, error) {
	fp, err := g.Fingerprint()
	if err != nil {
		return nil, err
	}
	r := ranges[i]
	cells, err := g.RunRangeContext(ctx, r.Start, r.End)
	if err != nil {
		return nil, err
	}
	env := &shard.Envelope{
		Version:     shard.Version,
		Fingerprint: fp,
		Spec:        json.RawMessage(g.specJSON),
		Arch:        runtime.GOARCH,
		Seed:        g.spec.Seed,
		Shard:       i,
		Shards:      len(ranges),
		Total:       g.Len(),
	}
	for _, c := range cells {
		raw, err := json.Marshal(c)
		if err != nil {
			return nil, fmt.Errorf("experiments: encoding cell %d: %w", c.Index, err)
		}
		env.Indices = append(env.Indices, c.Index)
		env.Rows = append(env.Rows, raw)
		if c.Cached {
			env.Cached = append(env.Cached, c.Index)
		}
	}
	return env, nil
}

// MergeShards validates a complete shard set, reassembles the cells in
// job order, and runs the driver's post-pass, returning output identical
// (modulo wall-time fields) to a single-process run of the same spec. It
// rejects envelopes whose fingerprints disagree with each other or with
// the grid the embedded spec materializes — the latter catches envelopes
// produced by a different build whose grid definition drifted.
func MergeShards(envs []*shard.Envelope) (*Output, error) {
	return MergeShardsNamed(envs, nil)
}

// MergeShardsNamed is MergeShards with a provenance label (typically the
// file path) per envelope: every validation error names the offending
// file, and an incomplete set fails with the shard indices still
// missing.
func MergeShardsNamed(envs []*shard.Envelope, names []string) (*Output, error) {
	m, err := shard.MergeNamed(envs, names)
	if err != nil {
		return nil, err
	}
	// The assembly post-pass below does float arithmetic of its own (fold
	// averaging, stability moments), so the coordinator must share the
	// shards' architecture for the serial-equivalence guarantee to hold.
	if m.Arch != runtime.GOARCH {
		return nil, fmt.Errorf("experiments: envelopes were produced on %s but this process is %s; merge on a matching architecture", m.Arch, runtime.GOARCH)
	}
	var spec Spec
	if err := json.Unmarshal(m.Spec, &spec); err != nil {
		return nil, fmt.Errorf("experiments: decoding envelope spec: %w", err)
	}
	g, err := Open(spec)
	if err != nil {
		return nil, err
	}
	fp, err := g.Fingerprint()
	if err != nil {
		return nil, err
	}
	if fp != m.Fingerprint {
		return nil, fmt.Errorf("experiments: fingerprint mismatch: envelopes carry %.12s…, spec materializes %.12s… (grid definition drift?)", m.Fingerprint, fp)
	}
	cells := make([]Cell, m.Total)
	for i, raw := range m.Rows {
		if err := json.Unmarshal(raw, &cells[i]); err != nil {
			return nil, fmt.Errorf("experiments: decoding cell %d: %w", i, err)
		}
	}
	// Assemble re-checks count and per-cell indices for every caller.
	return g.Assemble(cells)
}
