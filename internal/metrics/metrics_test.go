package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"fairbench/internal/dataset"
)

// example2 builds the paper's 100-applicant admission table (Figure 11):
// males: TP=14, FP=6, TN=38, FN=2; females: TP=7, FP=2, TN=28, FN=3.
func example2() (*dataset.Dataset, []int) {
	d := &dataset.Dataset{
		Name:  "admissions",
		Attrs: []dataset.Attr{{Name: "dummy", Kind: dataset.Numeric}},
		SName: "gender",
		YName: "qualified",
	}
	var yhat []int
	add := func(s, y, pred, count int) {
		for i := 0; i < count; i++ {
			d.X = append(d.X, []float64{0})
			d.S = append(d.S, s)
			d.Y = append(d.Y, y)
			yhat = append(yhat, pred)
		}
	}
	// Males (privileged).
	add(1, 1, 1, 14) // TP
	add(1, 0, 1, 6)  // FP
	add(1, 0, 0, 38) // TN
	add(1, 1, 0, 2)  // FN
	// Females (unprivileged).
	add(0, 1, 1, 7)  // TP
	add(0, 0, 1, 2)  // FP
	add(0, 0, 0, 28) // TN
	add(0, 1, 0, 3)  // FN
	return d, yhat
}

func TestExample2DI(t *testing.T) {
	d, yhat := example2()
	di := DisparateImpact(d, yhat)
	// DI = (9/40)/(20/60) = 0.675 (the paper rounds to 0.67).
	if math.Abs(di-0.675) > 1e-9 {
		t.Fatalf("DI: got %v want 0.675", di)
	}
}

func TestExample2TPRB(t *testing.T) {
	d, yhat := example2()
	// TPRB = 14/16 - 7/10 = 0.175 (the paper rounds to 0.18).
	if got := TPRBalance(d, yhat); math.Abs(got-0.175) > 1e-9 {
		t.Fatalf("TPRB: got %v want 0.175", got)
	}
}

func TestExample2TNRB(t *testing.T) {
	d, yhat := example2()
	// TNRB = 38/44 - 28/30 = -0.0697 (the paper rounds to -0.07).
	if got := TNRBalance(d, yhat); math.Abs(got-(38.0/44-28.0/30)) > 1e-9 {
		t.Fatalf("TNRB: got %v", got)
	}
}

func TestExample2Correctness(t *testing.T) {
	d, yhat := example2()
	c := ComputeCorrectness(d.Y, yhat)
	// Accuracy = (21+66)/100 = 0.87; the paper reports 87%.
	if math.Abs(c.Accuracy-0.87) > 1e-9 {
		t.Fatalf("accuracy: %v", c.Accuracy)
	}
	// Precision = 21/29, recall = 21/26.
	if math.Abs(c.Precision-21.0/29) > 1e-9 || math.Abs(c.Recall-21.0/26) > 1e-9 {
		t.Fatalf("precision/recall: %v %v", c.Precision, c.Recall)
	}
	if c.F1 <= 0.75 || c.F1 >= 0.79 {
		t.Fatalf("F1 out of expected band (paper: 78%%): %v", c.F1)
	}
}

func TestCorrectnessEdgeCases(t *testing.T) {
	c := ComputeCorrectness([]int{0, 0}, []int{0, 0})
	if c.Accuracy != 1 || c.Precision != 0 || c.Recall != 0 || c.F1 != 0 {
		t.Fatalf("all-negative case: %+v", c)
	}
}

// TestCorrectnessZeroDenominators pins the zero-division convention
// documented on ComputeCorrectness: every undefined ratio is 0, never
// NaN, so aggregations and serialized envelopes stay finite.
func TestCorrectnessZeroDenominators(t *testing.T) {
	cases := []struct {
		name    string
		y, yhat []int
		want    Correctness
	}{
		{"empty input", nil, nil, Correctness{}},
		{"no positive predictions (TP+FP=0)",
			[]int{1, 0, 1}, []int{0, 0, 0},
			Correctness{Accuracy: 1.0 / 3}},
		{"no positive labels (TP+FN=0)",
			[]int{0, 0, 0}, []int{1, 1, 0},
			Correctness{Accuracy: 1.0 / 3}},
		{"all-positive predictions",
			[]int{1, 0, 1, 0}, []int{1, 1, 1, 1},
			Correctness{Accuracy: 0.5, Precision: 0.5, Recall: 1, F1: 2.0 / 3}},
		{"all-negative everything",
			[]int{0, 0}, []int{0, 0},
			Correctness{Accuracy: 1}},
		{"perfect positives",
			[]int{1, 1}, []int{1, 1},
			Correctness{Accuracy: 1, Precision: 1, Recall: 1, F1: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := ComputeCorrectness(c.y, c.yhat)
			for _, v := range []float64{got.Accuracy, got.Precision, got.Recall, got.F1} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite metric: %+v", got)
				}
			}
			approx := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
			if !approx(got.Accuracy, c.want.Accuracy) || !approx(got.Precision, c.want.Precision) ||
				!approx(got.Recall, c.want.Recall) || !approx(got.F1, c.want.F1) {
				t.Fatalf("got %+v, want %+v", got, c.want)
			}
		})
	}
}

// onlyGroup builds a dataset whose tuples all belong to sensitive group s.
func onlyGroup(s int, n int) (*dataset.Dataset, []int) {
	d := &dataset.Dataset{
		Name:  "one-group",
		Attrs: []dataset.Attr{{Name: "dummy", Kind: dataset.Numeric}},
		SName: "s",
		YName: "y",
	}
	var yhat []int
	for i := 0; i < n; i++ {
		d.X = append(d.X, []float64{0})
		d.S = append(d.S, s)
		d.Y = append(d.Y, i%2)
		yhat = append(yhat, i%2)
	}
	return d, yhat
}

// TestFairnessEmptyProtectedGroup pins the group-metric behavior when one
// sensitive group is absent entirely — a real hazard for small shards and
// corrupted slices: rates for the missing group are 0 by convention, so
// DI degenerates (0 or +Inf, which DI* maps to 0) and the balance metrics
// report the present group's rate against 0 rather than NaN.
func TestFairnessEmptyProtectedGroup(t *testing.T) {
	t.Run("only privileged tuples", func(t *testing.T) {
		d, yhat := onlyGroup(1, 6)
		gr := ComputeGroupRates(d, yhat)
		if gr.PosRate[0] != 0 || gr.TPR[0] != 0 || gr.TNR[0] != 0 {
			t.Fatalf("missing group rates must be zero: %+v", gr)
		}
		if di := DisparateImpact(d, yhat); di != 0 {
			t.Fatalf("DI with empty unprivileged group: got %v, want 0", di)
		}
		if tprb := TPRBalance(d, yhat); tprb != 1 {
			t.Fatalf("TPRB against empty group: got %v, want 1", tprb)
		}
		n := Normalize(ComputeFairness(d, yhat, nil, nil))
		for _, v := range []float64{n.DIStar, n.TPRB, n.TNRB, n.ID, n.TE} {
			if math.IsNaN(v) || v < 0 || v > 1 {
				t.Fatalf("normalized score outside [0,1]: %+v", n)
			}
		}
	})
	t.Run("only unprivileged tuples", func(t *testing.T) {
		d, yhat := onlyGroup(0, 6)
		if di := DisparateImpact(d, yhat); !math.IsInf(di, 1) {
			t.Fatalf("DI with empty privileged group: got %v, want +Inf", di)
		}
		if star := DIStar(DisparateImpact(d, yhat)); star != 0 {
			t.Fatalf("DI* must fold +Inf to 0, got %v", star)
		}
	})
}

// TestFairnessDegeneratePredictions covers the all-positive and
// all-negative prediction vectors on a two-group dataset.
func TestFairnessDegeneratePredictions(t *testing.T) {
	d, _ := example2()
	allPos := make([]int, d.Len())
	for i := range allPos {
		allPos[i] = 1
	}
	if di := DisparateImpact(d, allPos); di != 1 {
		t.Fatalf("all-positive DI: got %v, want 1 (both groups rate 1)", di)
	}
	if tprb := TPRBalance(d, allPos); tprb != 0 {
		t.Fatalf("all-positive TPRB: %v", tprb)
	}
	// TNR is 0/0-guarded per group: all-positive predictions leave no
	// true negatives, so both groups report 0 and the balance is 0.
	if tnrb := TNRBalance(d, allPos); tnrb != 0 {
		t.Fatalf("all-positive TNRB: %v", tnrb)
	}
	allNeg := make([]int, d.Len())
	if tprb := TPRBalance(d, allNeg); tprb != 0 {
		t.Fatalf("all-negative TPRB: %v", tprb)
	}
	n := Normalize(ComputeFairness(d, allNeg, nil, nil))
	if n.DIStar != 1 || n.TPRB != 1 || n.TNRB != 1 {
		t.Fatalf("all-negative normalized: %+v", n)
	}
}

// flipLabels is the labels an S-echo model gives with S flipped.
func flipLabels(s []int) []int {
	out := make([]int, len(s))
	for i, v := range s {
		out[i] = 1 - v
	}
	return out
}

func TestIndividualDiscrimination(t *testing.T) {
	d, yhat := example2()
	// A model that predicts S itself changes every label when S flips.
	if got := IndividualDiscrimination(d.S, flipLabels(d.S)); got != 1 {
		t.Fatalf("S-echo labels must have ID=1, got %v", got)
	}
	// An S-blind model changes none.
	if got := IndividualDiscrimination(yhat, yhat); got != 0 {
		t.Fatalf("S-blind labels must have ID=0, got %v", got)
	}
	if got := IndividualDiscrimination([]int{1, 0, 1, 1}, []int{1, 1, 0, 1}); got != 0.5 {
		t.Fatalf("2 of 4 labels change: ID %v, want 0.5", got)
	}
	if got := IndividualDiscrimination(nil, nil); got != 0 {
		t.Fatalf("empty labels: ID %v, want 0", got)
	}
}

// recordingFlipper returns fixed label vectors and records the labels
// ComputeFairness passes it.
type recordingFlipper struct {
	factual, flipped []int
	gotD             *dataset.Dataset
	gotYhat          []int
}

func (f *recordingFlipper) PredictFlipped(d *dataset.Dataset, yhat []int) ([]int, []int) {
	f.gotD, f.gotYhat = d, yhat
	return f.factual, f.flipped
}

// TestComputeFairnessUsesFlipper: ComputeFairness hands the flipper its
// dataset and labels, and scores ID on the two vectors the flipper
// returns — the factual ones included, which for a randomized model need
// not be yhat.
func TestComputeFairnessUsesFlipper(t *testing.T) {
	d, yhat := example2()
	f := &recordingFlipper{factual: flipLabels(d.S), flipped: d.S}
	got := ComputeFairness(d, yhat, f, nil)
	if f.gotD != d || &f.gotYhat[0] != &yhat[0] {
		t.Fatal("ComputeFairness must pass its dataset and labels to the flipper")
	}
	if got.ID != 1 {
		t.Fatalf("every returned label pair differs, ID must be 1: %v", got.ID)
	}
	f.factual = d.S
	if got := ComputeFairness(d, yhat, f, nil); got.ID != 0 {
		t.Fatalf("identical returned vectors must give ID 0: %v", got.ID)
	}
}

func TestDIStar(t *testing.T) {
	cases := []struct{ di, want float64 }{
		{1, 1}, {0.5, 0.5}, {2, 0.5}, {0, 0}, {math.Inf(1), 0},
	}
	for _, c := range cases {
		if got := DIStar(c.di); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("DIStar(%v): got %v want %v", c.di, got, c.want)
		}
	}
	// Property: DIStar is always in [0,1] and symmetric under inversion.
	f := func(raw float64) bool {
		di := math.Abs(math.Mod(raw, 100))
		if math.IsNaN(di) || di == 0 {
			return true
		}
		a, b := DIStar(di), DIStar(1/di)
		return a >= 0 && a <= 1 && math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalize(t *testing.T) {
	n := Normalize(Fairness{DI: 0.5, TPRB: -0.3, TNRB: 0.2, ID: 0.1, TE: -0.4})
	if n.DIStar != 0.5 || n.TPRB != 0.7 || n.TNRB != 0.8 || n.ID != 0.9 || math.Abs(n.TE-0.6) > 1e-12 {
		t.Fatalf("normalized: %+v", n)
	}
	if !n.Reverse.TPRB || n.Reverse.TNRB || !n.Reverse.TE || !n.Reverse.DI == false {
		t.Fatalf("reverse flags: %+v", n.Reverse)
	}
}

func TestDisparateImpactDegenerate(t *testing.T) {
	d, _ := example2()
	allNeg := make([]int, d.Len())
	if di := DisparateImpact(d, allNeg); di != 1 {
		t.Fatalf("no positives anywhere must be DI=1, got %v", di)
	}
	// Positives only for the unprivileged group: DI = +Inf.
	posUnpriv := make([]int, d.Len())
	for i := range posUnpriv {
		if d.S[i] == 0 {
			posUnpriv[i] = 1
		}
	}
	if di := DisparateImpact(d, posUnpriv); !math.IsInf(di, 1) {
		t.Fatalf("want +Inf, got %v", di)
	}
}

func TestGroupRates(t *testing.T) {
	d, yhat := example2()
	gr := ComputeGroupRates(d, yhat)
	if math.Abs(gr.PosRate[1]-20.0/60) > 1e-12 || math.Abs(gr.PosRate[0]-9.0/40) > 1e-12 {
		t.Fatalf("positive rates: %+v", gr.PosRate)
	}
	if gr.Confusion[1].TP != 14 || gr.Confusion[0].FN != 3 {
		t.Fatalf("confusions: %+v", gr.Confusion)
	}
}

// TestMetricsAllocationBounds pins the allocation-free evaluation path:
// the correctness tally and the single-pass group-rate fairness metrics
// allocate nothing per call. (The causal and ID metrics are exercised
// with nil handles here — their cost is the model's, not the tally's.)
func TestMetricsAllocationBounds(t *testing.T) {
	d, yhat := example2()
	allocs := testing.AllocsPerRun(20, func() {
		_ = ComputeCorrectness(d.Y, yhat)
		f := ComputeFairness(d, yhat, nil, nil)
		_ = Normalize(f)
	})
	if allocs != 0 {
		t.Fatalf("metric evaluation allocates %v times per call, want 0", allocs)
	}
}

// TestComputeFairnessMatchesPerMetricFunctions pins that the single-pass
// group-rate tally derives exactly the values the standalone metric
// functions report.
func TestComputeFairnessMatchesPerMetricFunctions(t *testing.T) {
	d, yhat := example2()
	f := ComputeFairness(d, yhat, nil, nil)
	if f.DI != DisparateImpact(d, yhat) {
		t.Fatalf("DI diverges: %v vs %v", f.DI, DisparateImpact(d, yhat))
	}
	if f.TPRB != TPRBalance(d, yhat) {
		t.Fatalf("TPRB diverges: %v vs %v", f.TPRB, TPRBalance(d, yhat))
	}
	if f.TNRB != TNRBalance(d, yhat) {
		t.Fatalf("TNRB diverges: %v vs %v", f.TNRB, TNRBalance(d, yhat))
	}
}
