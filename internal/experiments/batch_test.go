package experiments

import (
	"bytes"
	"testing"
)

// batchSpecs is the sharing acceptance sweep: every experiment driver
// (via equivalenceSpecs) plus the bias-injection axis, which exercises
// the model sweep's shared repairs and base fits on a biased split.
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

// TestBatchedMatchesPerCell is the byte-identity gate for the one
// sharing rule: running a grid through RunAll — where the model sweep
// arms its training split and its cells share each repair and base fit —
// must produce output byte-identical (timing fields aside) to computing
// every cell alone. The per-cell reference calls Cell directly on a fresh
// grid, which arms nothing, so each cell recomputes everything from its
// own split. The RunAll side runs on four workers whatever the machine,
// so concurrent cells read each shared artifact while others are still
// fitting on it.
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

// armedSplits counts the grid's training splits armed for sharing.
func armedSplits(g *Grid) int {
	n := 0
	for _, sl := range g.slices {
		if sl.train.Batch() != nil {
			n++
		}
	}
	for _, sl := range g.scale {
		if sl.train.Batch() != nil {
			n++
		}
	}
	return n
}

// TestOnlyTheModelSweepArms pins the one sharing rule: a Cell loop arms
// nothing, and after RunAll every metric and timing grid's training
// splits are still unarmed — each cell paid for its own work, so each
// row's timing is that approach's own cost — while the model sweep's one
// split is armed.
func TestOnlyTheModelSweepArms(t *testing.T) {
	for _, spec := range batchSpecs() {
		g := mustOpen(t, spec)
		for i := 0; i < g.Len(); i++ {
			if _, err := g.Cell(i); err != nil {
				t.Fatalf("%s: cell %d: %v", spec.Experiment, i, err)
			}
		}
		if n := armedSplits(g); n != 0 {
			t.Fatalf("%s: a Cell loop armed %d split(s)", spec.Experiment, n)
		}
		g = mustOpen(t, spec)
		if _, err := g.RunAll(); err != nil {
			t.Fatal(err)
		}
		want := 0
		if g.kind == kindSens {
			want = 1
		}
		if n := armedSplits(g); n != want {
			t.Fatalf("%s: RunAll armed %d split(s), want %d", spec.Experiment, n, want)
		}
	}
}

// TestBatchedAllocatesLess asserts the point of the model sweep's
// sharing: its cells reusing each repair and base fit must allocate
// strictly less than every cell computing alone. Both sides open a fresh
// grid per run (so no armed cache survives between measurements) and run
// serially via SetWorkers(1) to keep the counts deterministic.
func TestBatchedAllocatesLess(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation comparison runs the fig10 grid four times")
	}
	spec := Spec{Experiment: "fig10", Dataset: "german", N: 150, Seed: 2}
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
