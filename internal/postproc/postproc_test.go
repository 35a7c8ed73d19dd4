package postproc

import (
	"math"
	"testing"

	"fairbench/internal/dataset"
	"fairbench/internal/fair"
	"fairbench/internal/metrics"
	"fairbench/internal/rng"
	"fairbench/internal/synth"
)

func trainTest(t *testing.T, n int) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	src := synth.COMPAS(n, 1)
	return src.Data.Split(0.7, rng.New(11))
}

func fitPredict(t *testing.T, a fair.Approach, train, test *dataset.Dataset) []int {
	t.Helper()
	if err := a.Fit(train); err != nil {
		t.Fatalf("%s fit: %v", a.Name(), err)
	}
	yhat, err := a.Predict(test)
	if err != nil {
		t.Fatalf("%s predict: %v", a.Name(), err)
	}
	return yhat
}

func TestKamKarImprovesDI(t *testing.T) {
	train, test := trainTest(t, 3000)
	b := fair.NewBaseline()
	byhat := fitPredict(t, b, train, test)
	base := metrics.DIStar(metrics.DisparateImpact(test, byhat))
	a := NewKamKar("", 3)
	yhat := fitPredict(t, a, train, test)
	di := metrics.DIStar(metrics.DisparateImpact(test, yhat))
	if di < base || di < 0.9 {
		t.Fatalf("KamKar DI* %v (baseline %v)", di, base)
	}
}

func TestKamKarThetaTuned(t *testing.T) {
	train, _ := trainTest(t, 2000)
	a := NewKamKar("", 3)
	if err := a.Fit(train); err != nil {
		t.Fatal(err)
	}
	kk := a.(*fair.PostProcessed).Mechanism.(*KamKar)
	if kk.theta < 0.5 || kk.theta > 0.96 {
		t.Fatalf("theta out of range: %v", kk.theta)
	}
}

func TestHardtEqualizesOdds(t *testing.T) {
	train, test := trainTest(t, 4000)
	b := fair.NewBaseline()
	byhat := fitPredict(t, b, train, test)
	baseTPRB := math.Abs(metrics.TPRBalance(test, byhat))
	baseTNRB := math.Abs(metrics.TNRBalance(test, byhat))
	a := NewHardt("", 5)
	yhat := fitPredict(t, a, train, test)
	tprb := math.Abs(metrics.TPRBalance(test, yhat))
	tnrb := math.Abs(metrics.TNRBalance(test, yhat))
	if tprb > baseTPRB+0.03 || tnrb > baseTNRB+0.03 {
		t.Fatalf("Hardt odds: tprb %v->%v tnrb %v->%v", baseTPRB, tprb, baseTNRB, tnrb)
	}
	h := a.(*fair.PostProcessed).Mechanism.(*Hardt)
	alpha, beta := h.alpha, h.beta
	for s := 0; s < 2; s++ {
		if alpha[s] < 0 || alpha[s] > 1 || beta[s] < 0 || beta[s] > 1 {
			t.Fatalf("mixing rates out of [0,1]: %v %v", alpha, beta)
		}
	}
}

func TestPleissShrinksTPRGap(t *testing.T) {
	train, test := trainTest(t, 4000)
	b := fair.NewBaseline()
	byhat := fitPredict(t, b, train, test)
	baseTPRB := math.Abs(metrics.TPRBalance(test, byhat))
	a := NewPleiss("", 7)
	yhat := fitPredict(t, a, train, test)
	tprb := math.Abs(metrics.TPRBalance(test, yhat))
	if tprb > baseTPRB+0.03 {
		t.Fatalf("Pleiss TPRB %v (baseline %v)", tprb, baseTPRB)
	}
	pl := a.(*fair.PostProcessed).Mechanism.(*Pleiss)
	if pl.alpha < 0 || pl.alpha > 1 {
		t.Fatalf("alpha out of range: %v", pl.alpha)
	}
}

func TestPostProcessingViolatesID(t *testing.T) {
	// The paper's Section 4.2 finding: post-processing uses S directly in
	// the adjustment, so ID is substantially worse than for approaches
	// that drop S.
	train, test := trainTest(t, 3000)
	a := NewKamKar("", 3)
	yhat := fitPredict(t, a, train, test)
	id := metrics.IndividualDiscrimination(a.PredictFlipped(test, yhat))
	if id < 0.05 {
		t.Fatalf("KamKar should show individual discrimination, ID=%v", id)
	}
}

func TestPredictReproducible(t *testing.T) {
	train, test := trainTest(t, 2000)
	a1 := NewHardt("", 9)
	a2 := NewHardt("", 9)
	y1 := fitPredict(t, a1, train, test)
	y2 := fitPredict(t, a2, train, test)
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatal("same seed must give identical randomized predictions")
		}
	}
}

func TestStages(t *testing.T) {
	for _, a := range []fair.Approach{NewKamKar("", 1), NewHardt("", 1), NewPleiss("", 1)} {
		if a.Stage() != fair.StagePost {
			t.Fatalf("%s: stage %v", a.Name(), a.Stage())
		}
	}
}
