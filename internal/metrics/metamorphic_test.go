package metrics

import (
	"math"
	"testing"

	"fairbench/internal/dataset"
	"fairbench/internal/fair"
	"fairbench/internal/rng"
	"fairbench/internal/synth"
)

// rateMetrics returns the four correctness metrics and the three
// rate-based fairness metrics (DI, TPRB, TNRB) of yhat on d, in order.
func rateMetrics(d *dataset.Dataset, yhat []int) [7]float64 {
	c := ComputeCorrectness(d.Y, yhat)
	f := ComputeFairness(d, yhat, nil, nil)
	return [7]float64{c.Accuracy, c.Precision, c.Recall, c.F1, f.DI, f.TPRB, f.TNRB}
}

// sameBits reports whether a and b hold the same float64 bits.
func sameBits(a, b [7]float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRateMetricsMetamorphic checks relations the rate metrics must
// satisfy with no golden file, on a fitted baseline's labels for one
// COMPAS test split:
//   - permuting the rows, or appending a copy of every tuple, leaves the
//     correctness metrics, DI, TPRB and TNRB bit-identical;
//   - swapping the two S codes maps DI to 1/DI (within rounding), negates
//     TPRB and TNRB exactly, and leaves DI* unchanged (within rounding);
//   - a constant predictor has DI = 1 and TPRB = TNRB = 0.
func TestRateMetricsMetamorphic(t *testing.T) {
	src := synth.COMPAS(600, 3)
	train, test := src.Data.Split(0.7, rng.New(3))
	base := fair.NewBaseline()
	if err := base.Fit(train); err != nil {
		t.Fatal(err)
	}
	yhat, err := base.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	want := rateMetrics(test, yhat)
	di, tprb, tnrb := want[4], want[5], want[6]
	if di == 1 || math.IsInf(di, 0) || tprb == 0 || tnrb == 0 {
		t.Fatalf("degenerate split: DI %v, TPRB %v, TNRB %v", di, tprb, tnrb)
	}

	relabel := func(idx []int) (*dataset.Dataset, []int) {
		labels := make([]int, len(idx))
		for j, i := range idx {
			labels[j] = yhat[i]
		}
		return test.Subset(idx), labels
	}
	perm := rng.New(4).Perm(test.Len())
	if got := rateMetrics(relabel(perm)); !sameBits(got, want) {
		t.Errorf("permuted rows: %v, want %v", got, want)
	}
	ident := make([]int, test.Len())
	for i := range ident {
		ident[i] = i
	}
	twice := append(append([]int(nil), ident...), ident...)
	if got := rateMetrics(relabel(twice)); !sameBits(got, want) {
		t.Errorf("every tuple appended again: %v, want %v", got, want)
	}

	swapped := test.Subset(ident)
	for i, s := range swapped.S {
		swapped.S[i] = 1 - s
	}
	f := ComputeFairness(swapped, yhat, nil, nil)
	if math.Abs(f.DI-1/di) > 1e-15/di {
		t.Errorf("swapped S: DI %v, want 1/DI = %v", f.DI, 1/di)
	}
	if math.Float64bits(f.TPRB) != math.Float64bits(-tprb) || math.Float64bits(f.TNRB) != math.Float64bits(-tnrb) {
		t.Errorf("swapped S: TPRB %v, TNRB %v; want %v, %v", f.TPRB, f.TNRB, -tprb, -tnrb)
	}
	if star := DIStar(di); math.Abs(DIStar(f.DI)-star) > 1e-15*star {
		t.Errorf("swapped S: DI* %v, want %v", DIStar(f.DI), star)
	}

	var labels [2][2]int // [s][y]
	for i, s := range test.S {
		labels[s][test.Y[i]]++
	}
	if labels[0][0] == 0 || labels[0][1] == 0 || labels[1][0] == 0 || labels[1][1] == 0 {
		t.Fatalf("a group holds one label only: %v tuples per [S][Y]", labels)
	}
	for _, label := range []int{0, 1} {
		constant := make([]int, test.Len())
		for i := range constant {
			constant[i] = label
		}
		if f := ComputeFairness(test, constant, nil, nil); f.DI != 1 || f.TPRB != 0 || f.TNRB != 0 {
			t.Errorf("constant %d: DI %v, TPRB %v, TNRB %v; want 1, 0, 0", label, f.DI, f.TPRB, f.TNRB)
		}
	}
}
