package classifier

import (
	"fmt"
	"math"
	"testing"

	"fairbench/internal/matrix"
	"fairbench/internal/rng"
)

// tieHeavy generates n rows of d features built to stress tie handling:
// low-cardinality categorical columns, a coarsely rounded continuous
// column, and every fourth row a duplicate of an earlier one.
func tieHeavy(n, d int, seed int64) (matrix.Dense, []int) {
	g := rng.New(seed)
	x := matrix.NewDense(n, d)
	y := make([]int, n)
	for i := range y {
		row := x.Row(i)
		if i >= 4 && i%4 == 0 {
			j := g.Intn(i)
			copy(row, x.Row(j))
			y[i] = y[j]
			continue
		}
		for f := range row {
			switch f % 3 {
			case 0:
				row[f] = float64(g.Intn(3))
			case 1:
				row[f] = float64(g.Intn(5)) - 2
			default:
				row[f] = math.Round(g.Normal(0, 2)*2) / 2
			}
		}
		score := row[0] - row[d-1] + g.Normal(0, 1)
		if score > 0.5 {
			y[i] = 1
		}
	}
	return *x, y
}

// weighting is one weight vector the differential tests fit with.
type weighting struct {
	name string
	w    []float64
}

// weightings returns unit (nil), dyadic (exact sums in any order) and
// general float weights, in that order.
func weightings(n int, seed int64) []weighting {
	g := rng.New(seed)
	dyadic := make([]float64, n)
	general := make([]float64, n)
	for i := range dyadic {
		dyadic[i] = []float64{0.25, 0.5, 1, 1.5, 2, 3.75}[g.Intn(6)]
		general[i] = 0.05 + 2*g.Float64()
	}
	return []weighting{{"nil", nil}, {"dyadic", dyadic}, {"general", general}}
}

// probes are the rows both trees are queried on: the training rows, and
// every training row shifted half a unit so queries land between levels.
func probes(x [][]float64) [][]float64 {
	out := append([][]float64(nil), x...)
	for _, row := range x {
		shifted := make([]float64, len(row))
		for f, v := range row {
			shifted[f] = v + 0.5
		}
		out = append(out, shifted)
	}
	return out
}

type diffSet struct {
	name string
	x    matrix.Dense
	y    []int
}

func diffSets() []diffSet {
	var sets []diffSet
	for _, c := range []struct{ n, d int }{{1, 3}, {7, 1}, {60, 2}, {200, 6}, {301, 9}} {
		x, y := tieHeavy(c.n, c.d, int64(c.n*31+c.d))
		sets = append(sets, diffSet{fmt.Sprintf("ties%dx%d", c.n, c.d), x, y})
	}
	x, y := xorData(150, 21)
	sets = append(sets, diffSet{"xor150", x, y})
	// Float edges: adjacent doubles, whose midpoint rounds onto one of
	// them; huge values, whose midpoint overflows to +Inf so one side of
	// the split comes out empty; and signed zeros.
	one, huge := math.Nextafter(1, 2), 1.7e308
	var edges [][]float64
	var edgeY []int
	for i := range 24 {
		edges = append(edges, []float64{[]float64{1, one}[i%2], []float64{1.5e308, huge}[i/2%2], []float64{0, math.Copysign(0, -1), -1}[i%3]})
		edgeY = append(edgeY, (i/2+i)%2)
	}
	sets = append(sets, diffSet{"edges24", *matrix.FromRows(edges), edgeY})
	// All rows identical: no split exists on any feature.
	same := make([][]float64, 12)
	sameY := make([]int, 12)
	for i := range same {
		same[i] = []float64{1, 2}
		sameY[i] = i % 2
	}
	return append(sets, diffSet{"identical12", *matrix.FromRows(same), sameY})
}

// sameTree reports where the production tree's node i first differs from
// the reference node: structure, split feature, threshold bits or leaf
// probability bits. Empty means equal.
func sameTree(ref *refNode, t *DecisionTree, i int32) string {
	n := &t.nodes[i]
	switch {
	case ref.leaf != n.leaf:
		return fmt.Sprintf("node %d: leaf %v, reference %v", i, n.leaf, ref.leaf)
	case ref.leaf && math.Float64bits(ref.prob) != math.Float64bits(n.prob):
		return fmt.Sprintf("node %d: leaf prob %v, reference %v", i, n.prob, ref.prob)
	case ref.leaf:
		return ""
	case ref.feature != n.feature || math.Float64bits(ref.threshold) != math.Float64bits(n.threshold):
		return fmt.Sprintf("node %d: split x%d <= %v, reference x%d <= %v", i, n.feature, n.threshold, ref.feature, ref.threshold)
	}
	if diff := sameTree(ref.left, t, n.left); diff != "" {
		return diff
	}
	return sameTree(ref.right, t, n.right)
}

// TestTreeMatchesReference fits the presorted grower and the per-node
// sorting reference on tie-heavy and continuous data across edge values
// of FeatureSubset, MinLeaf and MaxDepth. With unit or dyadic weights the
// trees must be identical node for node; with general float weights,
// tied values' weights are summed in a different order, and the test
// reports how many fits still came out different.
func TestTreeMatchesReference(t *testing.T) {
	fits, generalFits, generalDiffs := 0, 0, 0
	for _, set := range diffSets() {
		d, rows := set.x.Cols, set.x.RowsView()
		for _, wg := range weightings(set.x.Rows, 5) {
			for _, subset := range []int{0, 1, 2, d - 1, d, d + 1} {
				for _, minLeaf := range []float64{0, 0.5, 1, 3, 7.5} {
					for _, maxDepth := range []int{0, -1, 1, 3} {
						cfg := DecisionTree{MaxDepth: maxDepth, MinLeaf: minLeaf, FeatureSubset: subset, Seed: int64(fits)}
						ref := &refTree{MaxDepth: maxDepth, MinLeaf: minLeaf, FeatureSubset: subset, Seed: cfg.Seed}
						got := cfg
						if err := ref.Fit(rows, set.y, wg.w); err != nil {
							t.Fatal(err)
						}
						if err := got.Fit(set.x, set.y, wg.w); err != nil {
							t.Fatal(err)
						}
						fits++
						diff := sameTree(ref.root, &got, 0)
						if wg.name == "general" {
							generalFits++
							if diff != "" {
								generalDiffs++
							}
							continue
						}
						if diff != "" {
							t.Fatalf("%s, %s weights, %+v: %s", set.name, wg.name, cfg, diff)
						}
					}
				}
			}
		}
	}
	t.Logf("%d tree fits; general float weights: %d of %d fits differ from the reference", fits, generalDiffs, generalFits)
}

// TestForestMatchesReference does the same for forests: bootstrap
// draws, per-tree seeds and growth must reproduce the reference tree by
// tree, and the averaged probabilities bit for bit.
func TestForestMatchesReference(t *testing.T) {
	preds, generalPreds, generalDiffs := 0, 0, 0
	for _, set := range diffSets() {
		rows := set.x.RowsView()
		for _, wg := range weightings(set.x.Rows, 9) {
			for _, trees := range []int{0, 1, 3} {
				for _, maxDepth := range []int{0, 1, 4} {
					if trees == 0 && set.x.Rows > 100 {
						continue // the 40-tree default is covered on the small sets
					}
					cfg := RandomForest{Trees: trees, MaxDepth: maxDepth, Seed: int64(preds)}
					ref := &refForest{Trees: trees, MaxDepth: maxDepth, Seed: cfg.Seed}
					got := cfg
					if err := ref.Fit(rows, set.y, wg.w); err != nil {
						t.Fatal(err)
					}
					if err := got.Fit(set.x, set.y, wg.w); err != nil {
						t.Fatal(err)
					}
					if len(got.ensemble) != len(ref.ensemble) {
						t.Fatalf("%s: %d trees, reference %d", set.name, len(got.ensemble), len(ref.ensemble))
					}
					if wg.name != "general" {
						for i := range ref.ensemble {
							if diff := sameTree(ref.ensemble[i].root, &got.ensemble[i], 0); diff != "" {
								t.Fatalf("%s, %s weights, %+v, tree %d: %s", set.name, wg.name, cfg, i, diff)
							}
						}
					}
					for _, q := range probes(rows) {
						a, b := ref.PredictProba(q), got.PredictProba(q)
						preds++
						same := math.Float64bits(a) == math.Float64bits(b)
						if wg.name == "general" {
							generalPreds++
							if !same {
								generalDiffs++
							}
						} else if !same {
							t.Fatalf("%s, %s weights, %+v: proba(%v) = %v, reference %v", set.name, wg.name, cfg, q, b, a)
						}
					}
				}
			}
		}
	}
	t.Logf("%d forest predictions; general float weights: %d of %d differ from the reference", preds, generalDiffs, generalPreds)
}

// TestKNNMatchesReference holds the typed heap to container/heap on
// integer-grid data, where many training points sit at exactly the same
// distance from a query, so ties at the k-th neighbour decide which
// points are kept. Every weighting must match bit for bit: the heap
// keeps the same neighbours in the same slots, so even general weights
// are summed in the same order.
func TestKNNMatchesReference(t *testing.T) {
	x, y, queries := knnGrid(240)
	rows := x.RowsView()
	checked := 0
	for _, wg := range weightings(x.Rows, 4) {
		for _, k := range []int{0, 1, 2, 5, 33, 64, 65, 100, x.Rows, x.Rows + 3} {
			ref := &refKNN{K: k}
			got := &KNN{K: k}
			if err := ref.Fit(rows, y, wg.w); err != nil {
				t.Fatal(err)
			}
			if err := got.Fit(x, y, wg.w); err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				a, b := ref.PredictProba(q), got.PredictProba(q)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s weights, K=%d: proba(%v) = %v, reference %v", wg.name, k, q, b, a)
				}
				checked++
			}
		}
	}
	t.Logf("%d kNN queries match the reference", checked)
}

// knnGrid returns n training rows on a small integer grid, where many
// points sit at exactly the same distance from a query, their labels,
// and queries on and between the grid's levels.
func knnGrid(n int) (x matrix.Dense, y []int, queries [][]float64) {
	g := rng.New(3)
	x = *matrix.NewDense(n, 3)
	y = make([]int, n)
	for i := range y {
		copy(x.Row(i), []float64{float64(g.Intn(5)), float64(g.Intn(5)), float64(g.Intn(2))})
		y[i] = g.Intn(2)
	}
	for a := -1.0; a <= 5; a += 0.5 {
		for b := -1.0; b <= 5; b++ {
			queries = append(queries, []float64{a, b, 0.5})
		}
	}
	return x, y, queries
}

// TestPredictProbaIntoMatchesRows holds every family's block scoring to
// its row scoring, bit for bit, on kNN's tie-heavy grid under each
// weighting. kNN runs at every training size whose distance scan leaves
// a row tail of 0 to 3 and at K = 0, 1, 33, n and n+3; the block holds
// every query and every training row.
func TestPredictProbaIntoMatchesRows(t *testing.T) {
	check := func(name string, c Classifier, x matrix.Dense, y []int, w []float64, queries [][]float64) {
		t.Helper()
		if err := c.Fit(x, y, w); err != nil {
			t.Fatal(err)
		}
		block := matrix.FromRows(queries)
		got := make([]float64, block.Rows)
		c.PredictProbaInto(got, *block)
		for i, q := range queries {
			if want := c.PredictProba(q); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s: block row %d scored %v, row query %v", name, i, got[i], want)
			}
		}
	}
	for _, wg := range weightings(243, 4) {
		for n := 240; n <= 243; n++ {
			x, y, queries := knnGrid(n)
			queries = append(queries, x.RowsView()...)
			w := wg.w
			if w != nil {
				w = w[:n]
			}
			for _, k := range []int{0, 1, 33, n, n + 3} {
				check(fmt.Sprintf("kNN K=%d n=%d %s weights", k, n, wg.name), &KNN{K: k}, x, y, w, queries)
			}
		}
		x, y, queries := knnGrid(240)
		queries = append(queries, x.RowsView()...)
		w := wg.w
		if w != nil {
			w = w[:240]
		}
		for _, m := range []struct {
			name string
			c    Classifier
		}{
			{"LR", NewLogistic()},
			{"SVM", NewSVM()},
			{"RF", &RandomForest{Trees: 8}},
			{"MLP", &MLP{Epochs: 5}},
			{"tree", &DecisionTree{}},
		} {
			check(m.name+" "+wg.name+" weights", m.c, x, y, w, queries)
		}
	}
}

// mlpRows is tieHeavy's rows, or n empty rows with alternating labels
// when d is 0.
func mlpRows(n, d int, seed int64) (matrix.Dense, []int) {
	if d > 0 {
		return tieHeavy(n, d, seed)
	}
	y := make([]int, n)
	for i := range y {
		y[i] = i % 2
	}
	return *matrix.NewDense(n, 0), y
}

// sameMLP reports the first weight or prediction in which the batched
// MLP differs from the row-at-a-time reference. Empty means equal.
func sameMLP(ref *refMLP, got *MLP, queries [][]float64) string {
	hn := ref.hidden
	for h, row := range ref.w1 {
		for j, v := range row {
			if a := got.w1[j*hn+h]; math.Float64bits(a) != math.Float64bits(v) {
				return fmt.Sprintf("w1[%d][%d] = %v, reference %v", h, j, a, v)
			}
		}
	}
	for h, v := range ref.w2 {
		if math.Float64bits(got.w2[h]) != math.Float64bits(v) {
			return fmt.Sprintf("w2[%d] = %v, reference %v", h, got.w2[h], v)
		}
	}
	for _, q := range queries {
		if a, b := ref.PredictProba(q), got.PredictProba(q); math.Float64bits(a) != math.Float64bits(b) {
			return fmt.Sprintf("proba(%v) = %v, reference %v", q, b, a)
		}
	}
	return ""
}

// TestMLPMatchesReference holds the MLP's batch passes to the
// row-at-a-time loop they replaced, bit for bit, across the batch and
// tail shapes of n, every feature count up to 12 (and 33), batch sizes
// from one row to the whole set, hidden widths around the vector
// kernels' lane count, and unit, dyadic, general and batch-zeroing
// weights. The sparse weights leave most batches with zero total weight
// (the update skip), the zero weights every batch.
func TestMLPMatchesReference(t *testing.T) {
	hiddens := []int{1, 3, 4, 20, 21}
	ds := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 33}
	checked := 0
	for _, n := range []int{1, 31, 32, 33, 700} {
		for di, d := range ds {
			x, y := mlpRows(n, d, int64(n*37+d))
			rows := x.RowsView()
			sparse := make([]float64, n)
			for i := range sparse {
				if i%97 == 5 {
					sparse[i] = 1.5
				}
			}
			ws := append(weightings(n, int64(d+11)), weighting{"sparse", sparse}, weighting{"zero", make([]float64, n)})
			queries := probes(rows)
			for bi, batch := range []int{1, 3, 32, n + 1} {
				hn := hiddens[(di+bi)%len(hiddens)]
				wg := ws[(di+bi)%len(ws)]
				ref := &refMLP{Hidden: hn, Alpha: 0.01, Epochs: 2, Batch: batch, Seed: int64(di*4 + bi)}
				got := &MLP{Hidden: hn, Alpha: 0.01, Epochs: 2, Batch: batch, Seed: int64(di*4 + bi)}
				if err := ref.Fit(rows, y, wg.w); err != nil {
					t.Fatal(err)
				}
				if err := got.Fit(x, y, wg.w); err != nil {
					t.Fatal(err)
				}
				if diff := sameMLP(ref, got, queries); diff != "" {
					t.Fatalf("n=%d d=%d batch=%d hidden=%d %s weights: %s", n, d, batch, hn, wg.name, diff)
				}
				checked++
			}
		}
	}
	// The paper's configuration, at fig10's training shape.
	x, y := tieHeavy(700, 9, 5)
	rows := x.RowsView()
	for _, wg := range weightings(x.Rows, 6) {
		got := NewMLP()
		ref := &refMLP{Hidden: got.Hidden, Alpha: got.Alpha, Epochs: got.Epochs, Step: got.Step, Batch: got.Batch, Seed: got.Seed}
		if err := ref.Fit(rows, y, wg.w); err != nil {
			t.Fatal(err)
		}
		if err := got.Fit(x, y, wg.w); err != nil {
			t.Fatal(err)
		}
		if diff := sameMLP(ref, got, probes(rows)); diff != "" {
			t.Fatalf("default MLP, %s weights: %s", wg.name, diff)
		}
		checked++
	}
	t.Logf("%d MLP fits match the reference", checked)
}
