package experiments

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"

	"fairbench/internal/shard"
	"fairbench/internal/store"
)

// planSpec is the shared grid of the cache-aware planning tests: small
// enough (4 cells) to run everywhere, real enough to exercise the whole
// plan→run→merge stack.
func planSpec() Spec {
	return Spec{Experiment: "fig23", Dataset: "compas", N: 300, Seed: 6,
		Sizes: []int{60, 120}, Names: []string{"LR", "KamCal-DP"}}
}

// canonicalOutput marshals an output with timing fields zeroed.
func canonicalOutput(t *testing.T, out *Output) []byte {
	t.Helper()
	for _, pts := range out.Efficiency {
		for i := range pts {
			pts[i].Row.Seconds, pts[i].Row.Overhead = 0, 0
		}
	}
	for i := range out.Rows {
		out.Rows[i].Seconds, out.Rows[i].Overhead = 0, 0
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// populateSubset fills a fresh store with the given cells' entries,
// copied from a fully-populated reference store.
func populateSubset(t *testing.T, full, dst *store.DiskStore, fp string, seed int64, cells []int) {
	t.Helper()
	for _, i := range cells {
		key := store.Key{Fingerprint: fp, Index: i, Seed: seed, Arch: runtime.GOARCH}
		payload, ok := full.Get(key)
		if !ok {
			t.Fatalf("reference store misses cell %d", i)
		}
		if err := dst.Put(key, payload); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlanCacheAwareFullyCachedAssignsNothing pins the headline planning
// contract: over a fully-cached grid the plan is one skippable range and
// Assigned() is empty — a scheduler has nothing to place on hosts.
func TestPlanCacheAwareFullyCachedAssignsNothing(t *testing.T) {
	spec := planSpec()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shardWith(spec, 0, 1, st); err != nil {
		t.Fatal(err)
	}
	plan, err := PlanShardsCacheAware(spec, 3, st)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Assigned(); len(got) != 0 {
		t.Fatalf("fully-cached grid assigned ranges %v", got)
	}
	if len(plan.Ranges) != 1 || plan.TotalUncached() != 0 {
		t.Fatalf("fully-cached plan: %+v", plan)
	}

	// With no store every cell is work and the plan is a plain balanced
	// split.
	cold, err := PlanShardsCacheAware(spec, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Assigned()) != 2 || cold.TotalUncached() != cold.Total {
		t.Fatalf("storeless plan: %+v", cold)
	}
}

// TestPlanRunMergeRoundTripArbitrarySubsets is the planner's
// property-based gate: for arbitrary (shard count, cached subset)
// combinations, planning cache-aware, running every planned range
// through RunShardPlanned, and merging must reproduce the serial bytes —
// and the cached/computed provenance must account for exactly the
// subset.
func TestPlanRunMergeRoundTripArbitrarySubsets(t *testing.T) {
	spec := planSpec()
	g := mustOpen(t, spec)
	want, err := g.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := canonicalOutput(t, want)
	fp, err := g.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	total := g.Len()

	// A fully-populated reference store to copy subsets from.
	full, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shardWith(spec, 0, 1, full); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 12; trial++ {
		k := 1 + rng.Intn(5)
		var cached []int
		for i := 0; i < total; i++ {
			if rng.Intn(2) == 0 {
				cached = append(cached, i)
			}
		}
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		populateSubset(t, full, st, fp, spec.Seed, cached)

		plan, err := PlanShardsCacheAware(spec, k, st)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if plan.TotalUncached() != total-len(cached) {
			t.Fatalf("trial %d: plan sees %d uncached cells, want %d",
				trial, plan.TotalUncached(), total-len(cached))
		}
		envs := make([]*shard.Envelope, len(plan.Ranges))
		computed := 0
		for i := range plan.Ranges {
			if envs[i], err = RunShardPlanned(spec, plan.Ranges, i, st); err != nil {
				t.Fatalf("trial %d range %d: %v", trial, i, err)
			}
			computed += len(envs[i].Indices) - len(envs[i].Cached)
		}
		if computed != total-len(cached) {
			t.Fatalf("trial %d: computed %d cells, want %d (subset %v)",
				trial, computed, total-len(cached), cached)
		}
		out, err := MergeShards(envs)
		if err != nil {
			t.Fatalf("trial %d: merge: %v", trial, err)
		}
		if !bytes.Equal(wantBytes, canonicalOutput(t, out)) {
			t.Fatalf("trial %d (k=%d, %d cached): merged output diverges from serial",
				trial, k, len(cached))
		}
	}
}

// TestRunShardPlannedRejectsBadPlans: drifted or hand-edited plans fail
// loudly instead of producing unmergeable envelopes.
func TestRunShardPlannedRejectsBadPlans(t *testing.T) {
	spec := planSpec()
	n := mustOpen(t, spec).Len()
	cases := [][]shard.Range{
		nil,                      // empty plan
		{{Start: 0, End: n - 1}}, // does not cover the grid
		{{Start: 1, End: n}},     // does not start at 0
		{{Start: 0, End: n}, {Start: n, End: n + 1}}, // overruns the grid
		{{Start: 0, End: 2}, {Start: 3, End: n}},     // gap
	}
	for i, ranges := range cases {
		if _, err := RunShardPlanned(spec, ranges, 0, nil); err == nil {
			t.Fatalf("case %d: bad plan %v accepted", i, ranges)
		}
	}
	ok := []shard.Range{{Start: 0, End: n}}
	if _, err := RunShardPlanned(spec, ok, 1, nil); err == nil {
		t.Fatal("out-of-range plan position accepted")
	}
	// The aligned grids additionally reject unaligned boundaries.
	aspec := Spec{Experiment: "fig8attrs", Dataset: "adult", N: 300, Seed: 9,
		SampleSize: 250, AttrCounts: []int{2, 4}, Names: []string{"LR"}}
	ag := mustOpen(t, aspec)
	bad := []shard.Range{{Start: 0, End: 1}, {Start: 1, End: ag.Len()}}
	if _, err := RunShardPlanned(aspec, bad, 0, nil); err == nil {
		t.Fatal("unaligned plan accepted for a timing grid")
	}
}
