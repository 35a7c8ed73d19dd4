package experiments

import (
	"bytes"
	"testing"
)

// batchSpecs is the batched-execution acceptance sweep: every experiment
// driver (via equivalenceSpecs) plus the bias-injection axis, which
// exercises batching over bias-materialized training slices — for the
// model sweep, every shared repair and base fit of a biased split.
func batchSpecs() []Spec {
	specs := equivalenceSpecs()
	specs = append(specs,
		Spec{Experiment: "fig7", Dataset: "german", N: 200, Seed: 5,
			Bias: BiasUnder, BiasRate: 0.3, BiasRateNeg: 0.1},
		Spec{Experiment: "fig7", Dataset: "compas", N: 300, Seed: 3,
			Bias: BiasLabel, BiasRate: 0.2},
		Spec{Experiment: "fig10", Dataset: "adult", N: 300, Seed: 11,
			Bias: BiasLabel, BiasRate: 0.2},
	)
	return specs
}

// TestBatchedMatchesPerCell is the tentpole's byte-identity gate: running
// a grid batch-at-a-time — shared materializations armed, design and
// base-fit artifacts computed once per batch — must produce output
// byte-identical (timing fields aside) to computing every cell alone.
// The per-cell reference calls Cell directly on a fresh grid, which never
// arms a batch prepare, so each cell recomputes everything from its own
// split exactly as the pre-batching engine did. The batched side runs on
// four workers whatever the machine, so concurrent cells read each
// shared artifact while others are still fitting on it.
func TestBatchedMatchesPerCell(t *testing.T) {
	for _, spec := range batchSpecs() {
		spec := spec
		name := spec.Experiment
		if spec.Bias != "" {
			name += "-" + string(spec.Bias)
		}
		t.Run(name, func(t *testing.T) {
			ref := mustOpen(t, spec)
			cells := make([]Cell, ref.Len())
			for i := range cells {
				var err error
				if cells[i], err = ref.Cell(i); err != nil {
					t.Fatalf("cell %d: %v", i, err)
				}
			}
			perCell, err := ref.Assemble(cells)
			if err != nil {
				t.Fatal(err)
			}
			g := mustOpen(t, spec)
			g.SetWorkers(4)
			batched, err := g.RunAll()
			if err != nil {
				t.Fatal(err)
			}
			want, got := canonical(t, perCell), canonical(t, batched)
			if !bytes.Equal(want, got) {
				t.Fatalf("batched %s diverges from per-cell:\nper-cell: %.400s\nbatched:  %.400s",
					name, want, got)
			}
		})
	}
}

// TestBatchesPartitionGrid pins the planner invariant RunBatched's
// binary search relies on: Batches() returns sorted, non-overlapping,
// in-bounds ranges, and (for the metric grids) covers every job index, so
// no cell silently runs without its batch's shared backing.
func TestBatchesPartitionGrid(t *testing.T) {
	for _, spec := range batchSpecs() {
		g := mustOpen(t, spec)
		batches := g.Batches()
		covered, prev := 0, 0
		for i, b := range batches {
			if b.Start < prev || b.End <= b.Start || b.End > g.Len() {
				t.Fatalf("%s: batch %d [%d,%d) out of order for grid [0,%d)",
					spec.Experiment, i, b.Start, b.End, g.Len())
			}
			covered += b.End - b.Start
			prev = b.End
		}
		if covered != g.Len() {
			t.Fatalf("%s: batches cover %d of %d jobs", spec.Experiment, covered, g.Len())
		}
	}
}

// TestBatchedAllocatesLess asserts the point of batching: one shared
// materialization feeding a batch of cells must allocate strictly less
// than every cell materializing alone. Both sides open a fresh grid per
// run (so no armed cache survives between measurements) and run serially
// via SetWorkers(1) to keep the counts deterministic.
func TestBatchedAllocatesLess(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation comparison runs the fig7 grid four times")
	}
	spec := Spec{Experiment: "fig7", Dataset: "german", N: 150, Seed: 2}
	perCell := testing.AllocsPerRun(1, func() {
		g, err := Open(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.Len(); i++ {
			if _, err := g.Cell(i); err != nil {
				t.Fatal(err)
			}
		}
	})
	batched := testing.AllocsPerRun(1, func() {
		g, err := Open(spec)
		if err != nil {
			t.Fatal(err)
		}
		g.SetWorkers(1)
		if _, err := g.RunRange(0, g.Len()); err != nil {
			t.Fatal(err)
		}
	})
	if batched >= perCell {
		t.Fatalf("batched run allocates %.0f, per-cell %.0f — sharing saved nothing", batched, perCell)
	}
	t.Logf("allocs: per-cell %.0f, batched %.0f (saved %.1f%%)",
		perCell, batched, 100*(perCell-batched)/perCell)
}
