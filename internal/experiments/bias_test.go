package experiments

import (
	"bytes"
	"testing"

	"fairbench/internal/runner"
	"fairbench/internal/shard"
	"fairbench/internal/synth"
)

// biasSweepSpecs is the acceptance sweep: two bias kinds at three rates
// each over one fig7 grid. Every spec must materialize its own
// fingerprint — and therefore its own cache partition and merge
// identity.
func biasSweepSpecs() []Spec {
	base := Spec{Experiment: "fig7", Dataset: "german", N: 200, Seed: 5}
	specs := make([]Spec, 0, 6)
	for _, r := range [][2]float64{{0.3, 0.1}, {0.15, 0.05}, {0.45, 0.2}} {
		s := base
		s.Bias, s.BiasRate, s.BiasRateNeg = BiasUnder, r[0], r[1]
		specs = append(specs, s)
	}
	for _, nu := range []float64{0.1, 0.2, 0.3} {
		s := base
		s.Bias, s.BiasRate = BiasLabel, nu
		specs = append(specs, s)
	}
	return specs
}

func TestBiasSpecNormalize(t *testing.T) {
	base := Spec{Experiment: "fig7", Dataset: "german", N: 200, Seed: 5}
	bad := []Spec{
		func() Spec { s := base; s.BiasRate = 0.2; return s }(),                       // rate without a model
		func() Spec { s := base; s.Bias = "under"; return s }(),                       // model without a rate
		func() Spec { s := base; s.Bias = "under"; s.BiasRate = 1; return s }(),       // β⁺ out of range
		func() Spec { s := base; s.Bias = "label"; s.BiasRate = 1.5; return s }(),     // ν out of range
		func() Spec { s := base; s.Bias = "shift"; s.BiasRate = 0.2; return s }(),     // unknown model
		func() Spec { s := base; s.Bias = "under"; s.BiasRateNeg = -0.1; return s }(), // β⁻ negative
	}
	for i, s := range bad {
		if _, err := s.Normalize(); err == nil {
			t.Errorf("spec %d (%+v) normalized without error", i, s)
		}
	}
	ns, err := Spec{Experiment: "fig7", Dataset: "german", N: 200, Seed: 5,
		Bias: " Label ", BiasRate: 0.2, BiasRateNeg: 0.3}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if ns.Bias != BiasLabel || ns.BiasRateNeg != 0 {
		t.Fatalf("label normalization = %+v, want bias=label with β⁻ cleared", ns)
	}
}

// TestBiasSweepFingerprintsDisjoint: every bias setting — including
// clean — must produce a distinct grid fingerprint, so cached cells and
// shard envelopes can never cross bias settings.
func TestBiasSweepFingerprintsDisjoint(t *testing.T) {
	specs := append(biasSweepSpecs(),
		Spec{Experiment: "fig7", Dataset: "german", N: 200, Seed: 5})
	seen := map[string]int{}
	for i, s := range specs {
		fp, err := mustOpen(t, s).Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[fp]; dup {
			t.Fatalf("specs %d and %d share fingerprint %.12s…", prev, i, fp)
		}
		seen[fp] = i
	}
}

// TestBiasedOpenMaterializesIdenticalData is the determinism property
// under the whole axis: injection is a pure function of the spec, so
// every Open — in this process or any worker on any host — slices
// bit-identical train/test data. This is what makes a biased grid
// shardable at all.
func TestBiasedOpenMaterializesIdenticalData(t *testing.T) {
	for _, spec := range biasSweepSpecs() {
		a, b := mustOpen(t, spec), mustOpen(t, spec)
		if len(a.slices) == 0 || len(a.slices) != len(b.slices) {
			t.Fatalf("%s: %d vs %d slices", spec.Bias, len(a.slices), len(b.slices))
		}
		for i := range a.slices {
			if !sameData(a.slices[i].train, b.slices[i].train) ||
				!sameData(a.slices[i].test, b.slices[i].test) {
				t.Fatalf("bias %s rate %g: slice %d differs between two Opens",
					spec.Bias, spec.BiasRate, i)
			}
		}
	}
}

// TestBiasedShardMergeMatchesSerial extends the PR-2 acceptance gate to
// the bias axis: a biased grid run as k shards (envelopes serialized
// across the process boundary) must merge byte-identical to serial, for
// both bias kinds and several shard counts.
func TestBiasedShardMergeMatchesSerial(t *testing.T) {
	sweep := biasSweepSpecs()
	for _, tc := range []struct {
		spec   Spec
		shards []int
	}{
		{sweep[0], []int{2, 3, 5}}, // under-representation
		{sweep[4], []int{3}},       // label bias
	} {
		spec := tc.spec
		t.Run(spec.Bias, func(t *testing.T) {
			serial, err := mustOpen(t, spec).RunAll()
			if err != nil {
				t.Fatal(err)
			}
			want := canonical(t, serial)
			for _, k := range tc.shards {
				envs := make([]*shard.Envelope, k)
				for i := 0; i < k; i++ {
					env, err := RunShard(spec, i, k)
					if err != nil {
						t.Fatalf("shard %d/%d: %v", i, k, err)
					}
					data, err := env.Encode()
					if err != nil {
						t.Fatal(err)
					}
					if envs[i], err = shard.Decode(data); err != nil {
						t.Fatal(err)
					}
				}
				merged, err := MergeShards(envs)
				if err != nil {
					t.Fatal(err)
				}
				if got := canonical(t, merged); !bytes.Equal(want, got) {
					t.Fatalf("k=%d diverges from serial:\nserial: %.300s\nmerged: %.300s", k, want, got)
				}
			}
		})
	}
}

// TestBiasedGridStableAcrossParallelism: the worker-pool size must not
// leak into a biased grid's results (injection happens once in Open,
// not per worker).
func TestBiasedGridStableAcrossParallelism(t *testing.T) {
	defer runner.SetParallelism(0)
	spec := biasSweepSpecs()[0]
	runner.SetParallelism(1)
	serial, err := mustOpen(t, spec).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	runner.SetParallelism(4)
	pooled, err := mustOpen(t, spec).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical(t, serial), canonical(t, pooled)) {
		t.Fatal("biased grid diverges across -parallel settings")
	}
}

// TestBiasCacheIsolation: a warm store answers a re-run of the same
// biased spec entirely, while the same grid at a different bias rate
// shares no entries — zero hits, zero cached cells.
func TestBiasCacheIsolation(t *testing.T) {
	spec := Spec{Experiment: "fig23", Dataset: "compas", N: 300, Seed: 6,
		Sizes: []int{60, 120}, Names: []string{"LR", "KamCal-DP"},
		Bias: BiasLabel, BiasRate: 0.2}
	s := openStore(t)

	cold, err := RunShardCached(spec, 0, 1, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Cached) != 0 {
		t.Fatalf("cold run claims %d cached cells", len(cold.Cached))
	}

	warm, err := RunShardCached(spec, 0, 1, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Cached) != len(warm.Indices) {
		t.Fatalf("warm run cached %d of %d cells, want all", len(warm.Cached), len(warm.Indices))
	}
	a, err := MergeShards([]*shard.Envelope{cold})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MergeShards([]*shard.Envelope{warm})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical(t, a), canonical(t, b)) {
		t.Fatal("warm biased run diverges from cold")
	}

	other := spec
	other.BiasRate = 0.3
	before := s.Counters()
	env, err := RunShardCached(other, 0, 1, s)
	if err != nil {
		t.Fatal(err)
	}
	if env.Fingerprint == cold.Fingerprint {
		t.Fatal("different bias rates share a fingerprint")
	}
	if len(env.Cached) != 0 {
		t.Fatalf("different-rate run was served %d cells from the cache", len(env.Cached))
	}
	if hits := s.Counters().Hits - before.Hits; hits != 0 {
		t.Fatalf("different-rate run hit the store %d times, want 0", hits)
	}
}

// TestGoldenRowsBiasCOMPAS pins one bias-swept fig7 grid — both bias
// kinds on the same COMPAS slice — to a checked-in file, the same
// byte-for-byte guard TestGoldenRowsCOMPAS provides for clean data. A
// drift here means injection decisions moved (a Derive change, a salt
// change, a reordered keep-list), which silently invalidates every
// cached biased grid.
func TestGoldenRowsBiasCOMPAS(t *testing.T) {
	base := Spec{Experiment: "fig7", Dataset: "compas", N: 300, Seed: 42}
	golden := map[string][]Row{}
	for _, tc := range []struct {
		kind          string
		rate, rateNeg float64
	}{
		{BiasUnder, 0.4, 0.2},
		{BiasLabel, 0.2, 0},
	} {
		spec := base
		spec.Bias, spec.BiasRate, spec.BiasRateNeg = tc.kind, tc.rate, tc.rateNeg
		out, err := mustOpen(t, spec).RunAll()
		if err != nil {
			t.Fatal(err)
		}
		rows := out.Rows
		for i := range rows {
			rows[i].Seconds, rows[i].Overhead = 0, 0
		}
		golden[tc.kind] = rows
	}
	checkGolden(t, "golden_compas_bias_seed42.json", golden)
}

// TestBiasedSourceHasNoProvenance: a biased grid's data must not carry
// stock (dataset, n, seed) provenance — the driver-level cache reroute
// would otherwise serve clean-data results for biased data.
func TestBiasedSourceHasNoProvenance(t *testing.T) {
	clean := synth.German(200, 5)
	if clean.Dataset == "" {
		t.Fatal("stock source unexpectedly has no provenance")
	}
	ns, err := biasSweepSpecs()[0].Normalize()
	if err != nil {
		t.Fatal(err)
	}
	src, err := biasedSource(clean, ns)
	if err != nil {
		t.Fatal(err)
	}
	if src.Dataset != "" || src.N != 0 || src.Seed != 0 {
		t.Fatalf("biased source carries provenance Dataset=%q N=%d Seed=%d", src.Dataset, src.N, src.Seed)
	}
}
