package inproc

import (
	"math"
	"testing"

	"fairbench/internal/fair"
	"fairbench/internal/metrics"
)

func TestAgarwalDPImprovesDI(t *testing.T) {
	train, test := trainTest(t, 3000)
	base := baselineDI(t, train, test)
	a := NewAgarwalDP()
	yhat := fitPredict(t, a, train, test)
	di := metrics.DIStar(metrics.DisparateImpact(test, yhat))
	if di < base {
		t.Fatalf("Agarwal-DP DI* %v not above baseline %v", di, base)
	}
	if id := metrics.IndividualDiscrimination(a.PredictFlipped(test, yhat)); id != 0 {
		t.Fatalf("Agarwal drops S, ID must be 0: %v", id)
	}
}

func TestAgarwalEOImprovesOdds(t *testing.T) {
	train, test := trainTest(t, 3000)
	b := fair.NewBaseline()
	byhat := fitPredict(t, b, train, test)
	baseTPRB := math.Abs(metrics.TPRBalance(test, byhat))
	a := NewAgarwalEO()
	yhat := fitPredict(t, a, train, test)
	if got := math.Abs(metrics.TPRBalance(test, yhat)); got > baseTPRB+0.02 {
		t.Fatalf("Agarwal-EO TPRB %v vs baseline %v", got, baseTPRB)
	}
}

func TestAgarwalIdentity(t *testing.T) {
	dp, eo := NewAgarwalDP(), NewAgarwalEO()
	if dp.Name() != "Agarwal-DP" || eo.Name() != "Agarwal-EO" {
		t.Fatal("names")
	}
	if dp.Stage() != fair.StageIn {
		t.Fatal("stage")
	}
	if dp.Targets()[0] != fair.MetricDI {
		t.Fatal("dp target")
	}
	if len(eo.Targets()) != 2 {
		t.Fatal("eo targets")
	}
	_, test := trainTest(t, 200)
	if _, err := dp.Predict(test); err == nil {
		t.Fatal("predict before fit must error")
	}
}
