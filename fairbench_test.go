package fairbench

import (
	"context"
	"math"
	"testing"
)

func TestFacadeQuickPath(t *testing.T) {
	src := COMPAS(1200, 1)
	train, test := Split(src.Data, 0.7, 3)
	a, err := NewApproach("KamCal-DP", src.Graph, 5)
	if err != nil {
		t.Fatal(err)
	}
	row, err := Evaluate(a, train, test, src.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if row.Approach != "KamCal-DP" || row.Stage != "pre" {
		t.Fatalf("row identity: %+v", row)
	}
	if row.Fair.DIStar <= 0 || row.Fair.DIStar > 1 {
		t.Fatalf("DI*: %v", row.Fair.DIStar)
	}
}

func TestFacadeParallelism(t *testing.T) {
	spec := GridSpec{Experiment: "fig7", Dataset: "german", N: 200, Seed: 1}
	run := func(workers int) []Row {
		t.Helper()
		out, _, err := Run(context.Background(), spec, RunOptions{Parallelism: workers})
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		return out.Rows
	}
	parallel, serial := run(2), run(1)
	if len(parallel) != len(serial) {
		t.Fatalf("row counts: %d vs %d", len(parallel), len(serial))
	}
	for i := range serial {
		if serial[i].Approach != parallel[i].Approach ||
			serial[i].Correct != parallel[i].Correct ||
			serial[i].Fair != parallel[i].Fair {
			t.Fatalf("%s: parallel facade run diverges from serial", serial[i].Approach)
		}
	}
}

func TestFacadeDatasets(t *testing.T) {
	for _, src := range Sources(1) {
		if err := src.Data.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if Adult(100, 1).Data.Len() != 100 {
		t.Fatal("size override")
	}
}

func TestFacadeApproachNames(t *testing.T) {
	names := ApproachNames()
	if len(names) != 18 {
		t.Fatalf("variant count: %d", len(names))
	}
	// Mutating the returned slice must not corrupt the registry.
	names[0] = "clobbered"
	if ApproachNames()[0] == "clobbered" {
		t.Fatal("ApproachNames must return a copy")
	}
}

func TestFacadeMetrics(t *testing.T) {
	y := []int{1, 0, 1, 0}
	yhat := []int{1, 0, 0, 1}
	c := MeasureCorrectness(y, yhat)
	if c.Accuracy != 0.5 {
		t.Fatalf("accuracy: %v", c.Accuracy)
	}
	n := Normalize(Fairness{DI: 2})
	if n.DIStar != 0.5 || !n.Reverse.DI {
		t.Fatalf("normalize: %+v", n)
	}
}

func TestFacadeCorrupt(t *testing.T) {
	src := COMPAS(500, 1)
	dirty, err := Corrupt(src.Data, T2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if dirty.Len() != 500 {
		t.Fatal("corruption changed size")
	}
}

func TestFacadeModelSwap(t *testing.T) {
	src := COMPAS(800, 1)
	train, test := Split(src.Data, 0.7, 3)
	a, err := NewApproachWithModel("KamKar-DP", "kNN", src.Graph, 5)
	if err != nil {
		t.Fatal(err)
	}
	row, err := Evaluate(a, train, test, src.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(row.Correct.Accuracy) {
		t.Fatal("NaN accuracy")
	}
}

func TestFacadeSharding(t *testing.T) {
	// The facade's cross-process story end to end: plan, run the three
	// shards (round-tripping each envelope through its wire encoding),
	// merge, and compare against the plain driver on the same data.
	spec := GridSpec{Experiment: "fig7", Dataset: "german", N: 200, Seed: 5}
	ranges, err := PlanShards(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 3 || ranges[2].End != 19 {
		t.Fatalf("plan: %+v", ranges)
	}
	envs := make([]*ShardEnvelope, 3)
	for i := range envs {
		env, err := RunShard(spec, i, 3)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		wire, err := env.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if envs[i], err = DecodeShardEnvelope(wire); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := MergeShards(envs)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunCorrectnessFairness(German(200, 5), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Rows) != len(serial) {
		t.Fatalf("row counts: %d vs %d", len(merged.Rows), len(serial))
	}
	for i := range serial {
		m, s := merged.Rows[i], serial[i]
		if m.Approach != s.Approach || m.Correct != s.Correct || m.Fair != s.Fair {
			t.Fatalf("%s: sharded run diverges from serial driver", s.Approach)
		}
	}
	// A shard set from a different seed must not merge.
	foreign, err := RunShard(GridSpec{Experiment: "fig7", Dataset: "german", N: 200, Seed: 6}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards([]*ShardEnvelope{envs[0], envs[1], foreign}); err == nil {
		t.Fatal("merged envelopes from different grids")
	}
}

func TestFacadeBaselineUnfairOnAdult(t *testing.T) {
	// The paper's headline observation: the fairness-unaware LR on Adult
	// has very low DI (Figure 7a) while staying fairly accurate.
	src := Adult(6000, 2)
	train, test := Split(src.Data, 0.7, 7)
	row, err := Evaluate(Baseline(), train, test, src.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if row.Correct.Accuracy < 0.7 {
		t.Fatalf("baseline accuracy: %v", row.Correct.Accuracy)
	}
	if row.Fair.DIStar > 0.5 {
		t.Fatalf("Adult baseline should have low DI*, got %v", row.Fair.DIStar)
	}
}
