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
	// entry at plan time.
	Uncached []int

	// specJSON is the grid's canonical spec encoding, kept so envelopes
	// served from the plan carry the same Spec bytes runPlanned would.
	specJSON []byte
	// payloads holds the verified cell payloads the store served during
	// planning, by cell index — the plan-time probe already read and
	// checked every cached entry end to end, so the coordinator can serve
	// fully-cached ranges from these bytes without re-reading the store.
	// Only populated by PlanShardsCacheAware in this process; a plan that
	// crossed a process boundary (e.g. a decoded manifest) has none and
	// serves through RunShardPlanned as before.
	payloads map[int][]byte
}

// Assigned returns the plan positions that still hold uncached work —
// the ranges a scheduler must place on hosts. Positions absent here are
// fully cached and are served by the coordinator without spawning
// anything; over a fully-cached grid Assigned is empty.
func (p *ShardPlan) Assigned() []int {
	var idx []int
	for i, u := range p.Uncached {
		if u > 0 {
			idx = append(idx, i)
		}
	}
	return idx
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
	g, err := Open(spec)
	if err != nil {
		return nil, err
	}
	fp, err := g.Fingerprint()
	if err != nil {
		return nil, err
	}
	align := g.alignment()
	payloads := map[int][]byte{}
	uncached := func(block int) int {
		r := shard.Range{Start: block * align, End: (block + 1) * align}
		return probeRange(fp, g.spec.Seed, r, s, func(i int, payload []byte) {
			payloads[i] = payload
		})
	}
	ranges, counts, err := shard.PlanCacheAware(g.Len(), k, align, uncached)
	if err != nil {
		return nil, err
	}
	return &ShardPlan{
		Spec:        g.Spec(),
		Fingerprint: fp,
		Total:       g.Len(),
		Ranges:      ranges,
		Uncached:    counts,
		specJSON:    g.specJSON,
		payloads:    payloads,
	}, nil
}

// UncachedInRange counts the cells of r the store cannot serve for the
// given grid identity — fingerprint plus seed, on this process's GOARCH.
// A nil store serves nothing, so every cell counts. This is the single
// probe loop behind cache-aware planning and the scheduler's
// adopted-manifest resume path; keeping both on one helper means a
// change to the cache key shape can never make them drift.
func UncachedInRange(fp string, seed int64, r shard.Range, s store.Backend) int {
	return probeRange(fp, seed, r, s, nil)
}

// probeRange is the shared probe loop: it counts the cells of r the
// store cannot serve and, when hit is non-nil, hands every verified
// payload to it. Store probing goes through Get, which checks each entry
// end to end, so a payload passed to hit carries exactly the bytes a
// later cache read would.
func probeRange(fp string, seed int64, r shard.Range, s store.Backend, hit func(i int, payload []byte)) int {
	if s == nil {
		return r.Len()
	}
	n := 0
	for i := r.Start; i < r.End; i++ {
		payload, ok := s.Get(store.Key{Fingerprint: fp, Index: i, Seed: seed, Arch: runtime.GOARCH})
		if !ok {
			n++
			continue
		}
		if hit != nil {
			hit(i, payload)
		}
	}
	return n
}

// ServeEnvelope materializes plan position i as an envelope straight
// from the payloads captured at plan time — the single-pass plan+serve
// path: ranges the plan found fully cached never touch the store (or the
// grid) again. It reproduces RunShardPlanned's bytes exactly: each
// payload decodes to the cell the cache path would serve, is marked
// Cached, and is re-encoded by the same marshaller. ok is false when the
// plan carries no payloads (crossed a process boundary), the position is
// out of range, or any cell of the range is missing or fails to decode
// to its own index — callers then fall back to RunShardPlanned, which
// recomputes exactly as the cache path would on the same bad entry.
// A nil plan serves nothing, so callers holding a maybe-nil plan (e.g.
// the scheduler's adopted-manifest path) can call unconditionally.
func (p *ShardPlan) ServeEnvelope(i int) (*shard.Envelope, bool) {
	if p == nil || len(p.payloads) == 0 || len(p.specJSON) == 0 || i < 0 || i >= len(p.Ranges) {
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
	return runShard(ctx, g, i, k)
}

// RunShardPlanned executes ranges[i] of an explicit plan of the spec's
// grid — the execution half of cache-aware scheduling, where range
// boundaries come from a recorded plan (e.g. a scheduler manifest)
// rather than the uniform k-way split. The ranges must partition
// [0, grid len) contiguously on aligned boundaries; the envelope records
// plan position i of len(ranges), so a complete planned set merges
// through MergeShards exactly like a uniform one. A nil store runs
// every cell cold.
func RunShardPlanned(spec Spec, ranges []shard.Range, i int, s store.Backend) (*shard.Envelope, error) {
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
	return runPlanned(context.Background(), g, ranges, i)
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

func runShard(ctx context.Context, g *Grid, i, k int) (*shard.Envelope, error) {
	ranges, err := shard.PlanAligned(g.Len(), k, g.alignment())
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= k {
		return nil, fmt.Errorf("experiments: shard %d of %d out of range", i, k)
	}
	return runPlanned(ctx, g, ranges, i)
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
