package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"fairbench/internal/shard"
	"fairbench/internal/store"
	"fairbench/internal/synth"
)

// shardWith runs shard i of a k-way split of spec against store s (nil
// runs every cell cold) on the default worker pool.
func shardWith(spec Spec, i, k int, s store.Backend) (*shard.Envelope, error) {
	return RunShardContext(context.Background(), spec, i, k, s, 0)
}

// zeroTiming clears every wall-clock-derived field of an output, leaving
// exactly the data the determinism contract covers. The scalability
// payload is pure timing, so only its shape (names and x values) remains.
func zeroTiming(out *Output) {
	zeroRows := func(rows []Row) {
		for i := range rows {
			rows[i].Seconds, rows[i].Overhead = 0, 0
		}
	}
	zeroRows(out.Rows)
	for i := range out.Robustness {
		zeroRows(out.Robustness[i].Rows)
	}
	for i := range out.Sensitivity {
		out.Sensitivity[i].Row.Seconds, out.Sensitivity[i].Row.Overhead = 0, 0
	}
	for _, pts := range out.Efficiency {
		for i := range pts {
			pts[i].Row.Seconds, pts[i].Row.Overhead = 0, 0
		}
	}
	for _, pts := range out.Scalability {
		for i := range pts {
			pts[i].Overhead = 0
		}
	}
}

// canonical marshals an output with timing zeroed, for byte comparison.
func canonical(t *testing.T, out *Output) []byte {
	t.Helper()
	zeroTiming(out)
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// equivalenceSpecs is one small grid per experiment driver — all seven
// drivers of the harness (fig7, fig9, fig10, cv, fig22, fig23, fig8) plus
// the fig15 appendix grid, at sizes that keep the suite fast.
func equivalenceSpecs() []Spec {
	return []Spec{
		{Experiment: "fig7", Dataset: "german", N: 200, Seed: 5},
		{Experiment: "fig9", Dataset: "compas", N: 400, Seed: 3},
		{Experiment: "fig10", Dataset: "adult", N: 400, Seed: 2, Names: []string{"Feld-DP", "KamKar-DP"}},
		{Experiment: "cv", Dataset: "german", N: 240, Seed: 7, K: 3},
		{Experiment: "fig22", Dataset: "adult", N: 300, Seed: 4, Runs: 3},
		{Experiment: "fig23", Dataset: "compas", N: 400, Seed: 6, Sizes: []int{80, 160}, Names: []string{"LR", "KamCal-DP"}},
		{Experiment: "fig8rows", Dataset: "compas", N: 400, Seed: 8, Sizes: []int{100, 200}, Names: []string{"KamCal-DP"}},
		{Experiment: "fig8attrs", Dataset: "adult", N: 300, Seed: 9, AttrCounts: []int{2, 4}, SampleSize: 250, Names: []string{"Feld-DP"}},
		{Experiment: "fig15", Dataset: "german", N: 200, Seed: 5},
	}
}

// TestShardMergeMatchesSerial is the PR's acceptance gate: for every
// experiment driver, running the grid as three shards — each envelope
// serialized and decoded, as it would be crossing process or host
// boundaries — and merging must produce rows byte-identical (timing
// fields excluded) to a single-process run of the same spec.
func TestShardMergeMatchesSerial(t *testing.T) {
	for _, spec := range equivalenceSpecs() {
		spec := spec
		t.Run(spec.Experiment, func(t *testing.T) {
			g, err := Open(spec)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := g.RunAll()
			if err != nil {
				t.Fatal(err)
			}
			const k = 3
			envs := make([]*shard.Envelope, k)
			for i := 0; i < k; i++ {
				env, err := shardWith(spec, i, k, nil)
				if err != nil {
					t.Fatalf("shard %d: %v", i, err)
				}
				data, err := env.Encode()
				if err != nil {
					t.Fatalf("shard %d encode: %v", i, err)
				}
				if envs[i], err = shard.Decode(data); err != nil {
					t.Fatalf("shard %d decode: %v", i, err)
				}
			}
			merged, err := MergeShards(envs)
			if err != nil {
				t.Fatal(err)
			}
			want, got := canonical(t, serial), canonical(t, merged)
			if !bytes.Equal(want, got) {
				t.Fatalf("sharded %s diverges from serial:\nserial: %.400s\nmerged: %.400s",
					spec.Experiment, want, got)
			}
		})
	}
}

// TestDriverMatchesSpecPath pins the two entry points to each other for
// every experiment kind: a Source driver (the library's direct, uncached
// grid) and the Spec/Open path (the grid every CLI command, shard and
// cache runs) must materialize the same grid and produce the same
// output, timing fields aside.
func TestDriverMatchesSpecPath(t *testing.T) {
	for _, c := range []struct {
		spec   Spec
		driver func() (*Output, error)
	}{
		{Spec{Experiment: "fig7", Dataset: "german", N: 240, Seed: 7}, func() (*Output, error) {
			rows, err := CorrectnessFairness(synth.German(240, 7), 7)
			return &Output{Rows: rows}, err
		}},
		{Spec{Experiment: "fig15", Dataset: "german", N: 240, Seed: 7}, func() (*Output, error) {
			rows, err := Extensions(synth.German(240, 7), 7)
			return &Output{Rows: rows}, err
		}},
		{Spec{Experiment: "cv", Dataset: "german", N: 240, Seed: 7, K: 3}, func() (*Output, error) {
			rows, err := CrossValidate(synth.German(240, 7), 3, 7)
			return &Output{Rows: rows}, err
		}},
		{Spec{Experiment: "fig9", Dataset: "compas", N: 300, Seed: 7}, func() (*Output, error) {
			res, err := Robustness(synth.COMPAS(300, 7), 7)
			return &Output{Robustness: res}, err
		}},
		{Spec{Experiment: "fig10", Dataset: "adult", N: 300, Seed: 7}, func() (*Output, error) {
			rows, err := ModelSensitivity(synth.Adult(300, 7), nil, 7)
			return &Output{Sensitivity: rows}, err
		}},
		{Spec{Experiment: "fig22", Dataset: "adult", N: 300, Seed: 7, Runs: 3}, func() (*Output, error) {
			rows, err := Stability(synth.Adult(300, 7), 3, 7)
			return &Output{Stability: rows}, err
		}},
		{Spec{Experiment: "fig23", Dataset: "adult", N: 300, Seed: 7}, func() (*Output, error) {
			pts, err := DataEfficiency(synth.Adult(300, 7), DefaultFig23Sizes(300), nil, 7)
			return &Output{Efficiency: pts}, err
		}},
	} {
		t.Run(c.spec.Experiment, func(t *testing.T) {
			direct, err := c.driver()
			if err != nil {
				t.Fatal(err)
			}
			out, err := mustOpen(t, c.spec).RunAll()
			if err != nil {
				t.Fatal(err)
			}
			// Only the payload is compared: the direct driver's output
			// carries no spec.
			out.Experiment, out.Spec = "", Spec{}
			if !bytes.Equal(canonical(t, direct), canonical(t, out)) {
				t.Fatal("Spec path diverges from direct driver call")
			}
		})
	}
}

func mustOpen(t *testing.T, spec Spec) *Grid {
	t.Helper()
	g, err := Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSpecNormalizeDefaultsAndErrors(t *testing.T) {
	ns, err := Spec{Experiment: "CV", Dataset: "German", Seed: 1}.Normalize()
	if err != nil || ns.Experiment != "cv" || ns.Dataset != "german" || ns.K != 5 {
		t.Fatalf("normalize: %+v, %v", ns, err)
	}
	ns, err = Spec{Experiment: "fig9", Seed: 1}.Normalize()
	if err != nil || ns.Dataset != "compas" {
		t.Fatalf("fig9 default dataset: %+v, %v", ns, err)
	}
	ns, err = Spec{Experiment: "fig8attrs", Seed: 1, N: 500}.Normalize()
	if err != nil || ns.SampleSize != 500 || len(ns.AttrCounts) != 5 {
		t.Fatalf("fig8attrs defaults: %+v, %v", ns, err)
	}
	for _, bad := range []Spec{
		{Experiment: "nope", Seed: 1},
		{Experiment: "fig7", Seed: 1},                        // dataset required
		{Experiment: "fig7", Dataset: "mars", Seed: 1},       // unknown dataset
		{Experiment: "cv", Dataset: "german", K: 1, Seed: 1}, // k too small
	} {
		if _, err := bad.Normalize(); err == nil {
			t.Fatalf("spec %+v accepted", bad)
		}
	}
}

func TestGridEnumeration(t *testing.T) {
	g := mustOpen(t, Spec{Experiment: "fig7", Dataset: "german", N: 200, Seed: 1})
	if g.Len() != 19 {
		t.Fatalf("fig7 grid size %d", g.Len())
	}
	fp1, err := g.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, _ := mustOpen(t, Spec{Experiment: "fig7", Dataset: "german", N: 200, Seed: 1}).Fingerprint()
	if fp1 != fp2 {
		t.Fatal("fingerprint not deterministic across Opens")
	}
	fp3, _ := mustOpen(t, Spec{Experiment: "fig7", Dataset: "german", N: 200, Seed: 2}).Fingerprint()
	if fp1 == fp3 {
		t.Fatal("fingerprint ignores seed")
	}
	if _, err := g.Cell(19); err == nil {
		t.Fatal("out-of-range cell accepted")
	}
	if _, err := g.RunRange(5, 3); err == nil {
		t.Fatal("inverted range accepted")
	}
	// A grid built directly from a Source has no spec to fingerprint.
	if _, err := fig7Grid(synth.German(200, 1), 1).Fingerprint(); err == nil {
		t.Fatal("sourceless grid fingerprinted")
	}
}

func TestMergeShardsRejectsForeignEnvelope(t *testing.T) {
	specA := Spec{Experiment: "fig23", Dataset: "compas", N: 300, Seed: 1, Sizes: []int{60, 120}, Names: []string{"LR"}}
	specB := specA
	specB.Seed = 2
	a0, err := shardWith(specA, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := shardWith(specA, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := shardWith(specB, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards([]*shard.Envelope{a0, b1}); err == nil ||
		!strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("foreign envelope accepted: %v", err)
	}
	if _, err := MergeShards([]*shard.Envelope{a0}); err == nil {
		t.Fatal("incomplete shard set accepted")
	}
	// Tampering with an envelope's spec must break the fingerprint check.
	tampered := *a1
	tampered.Spec = json.RawMessage(strings.Replace(string(a1.Spec), `"seed":1`, `"seed":9`, 1))
	if _, err := MergeShards([]*shard.Envelope{a0, &tampered}); err == nil ||
		!strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("tampered spec accepted: %v", err)
	}
	// And the happy path still merges.
	if _, err := MergeShards([]*shard.Envelope{a0, a1}); err != nil {
		t.Fatalf("valid merge failed: %v", err)
	}
}

// TestFingerprintIgnoresUnusedSpecFields pins the Normalize contract:
// stray values in fields an experiment ignores (here Runs and K on a
// fig7 spec) must not change the grid identity, so shards produced by
// two callers whose specs differ only in dead fields still merge.
func TestFingerprintIgnoresUnusedSpecFields(t *testing.T) {
	clean := Spec{Experiment: "fig7", Dataset: "german", N: 200, Seed: 5}
	noisy := clean
	noisy.Runs, noisy.K, noisy.SampleSize = 10, 7, 999
	noisy.Sizes, noisy.AttrCounts, noisy.Names = []int{1}, []int{2}, []string{"LR"}
	fpClean, err := mustOpen(t, clean).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpNoisy, err := mustOpen(t, noisy).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpClean != fpNoisy {
		t.Fatal("fingerprint depends on fields fig7 ignores")
	}
	a, err := shardWith(clean, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := shardWith(noisy, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards([]*shard.Envelope{a, b}); err != nil {
		t.Fatalf("equal grids from differently-noised specs must merge: %v", err)
	}
}

// TestScaleShardsAlignToSlices pins the timing-grid planner: a slice's
// baseline column and approach columns must land in the same shard, so
// overhead subtraction never mixes measurements from different machines.
func TestScaleShardsAlignToSlices(t *testing.T) {
	spec := Spec{Experiment: "fig8attrs", Dataset: "adult", N: 300, Seed: 9, SampleSize: 250}
	g := mustOpen(t, spec)
	cols := len(specNames(g.Spec())) + 1
	if g.Len()%cols != 0 {
		t.Fatalf("grid %d not a whole number of slices (cols=%d)", g.Len(), cols)
	}
	for _, k := range []int{2, 3, 4} {
		ranges, err := PlanShards(spec, k)
		if err != nil {
			t.Fatal(err)
		}
		covered := 0
		for _, r := range ranges {
			if r.Start%cols != 0 || r.End%cols != 0 {
				t.Fatalf("k=%d: range %+v splits a slice (cols=%d)", k, r, cols)
			}
			covered += r.Len()
		}
		if covered != g.Len() {
			t.Fatalf("k=%d: plan covers %d of %d", k, covered, g.Len())
		}
	}
}

// TestShardWorkIsDisjoint checks the planner contract at the grid level:
// the three shards of a spec partition the job indices exactly.
func TestShardWorkIsDisjoint(t *testing.T) {
	spec := Spec{Experiment: "cv", Dataset: "german", N: 240, Seed: 7, K: 3}
	ranges, err := PlanShards(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := mustOpen(t, spec)
	covered := 0
	for i, r := range ranges {
		if i > 0 && r.Start != ranges[i-1].End {
			t.Fatalf("ranges not contiguous: %+v", ranges)
		}
		covered += r.Len()
	}
	if covered != g.Len() {
		t.Fatalf("plan covers %d of %d jobs", covered, g.Len())
	}
}
