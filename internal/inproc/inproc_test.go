package inproc

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

// sources are the three benchmark datasets.
var sources = []struct {
	name string
	gen  func(n int, seed int64) *synth.Source
}{{"adult", synth.Adult}, {"compas", synth.COMPAS}, {"german", synth.German}}

// trainingSplit is the 70% training split of gen's dataset at n and
// seed, drawn as the metric grids draw it.
func trainingSplit(gen func(int, int64) *synth.Source, n int, seed int64) *dataset.Dataset {
	train, _ := gen(n, seed).Data.Split(0.7, rng.New(seed))
	return train
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

func baselineDI(t *testing.T, train, test *dataset.Dataset) float64 {
	t.Helper()
	b := fair.NewBaseline()
	yhat := fitPredict(t, b, train, test)
	return metrics.DIStar(metrics.DisparateImpact(test, yhat))
}

func TestZafarDPImprovesDI(t *testing.T) {
	train, test := trainTest(t, 3000)
	base := baselineDI(t, train, test)
	for _, a := range []fair.Approach{NewZafarDPFair(), NewZafarDPAcc()} {
		yhat := fitPredict(t, a, train, test)
		di := metrics.DIStar(metrics.DisparateImpact(test, yhat))
		if di < base {
			t.Fatalf("%s: DI* %v not above baseline %v", a.Name(), di, base)
		}
		if di < 0.85 {
			t.Fatalf("%s: DI* %v too low for a DP-targeting approach", a.Name(), di)
		}
	}
}

func TestZafarTriviallySatisfiesID(t *testing.T) {
	train, test := trainTest(t, 1500)
	a := NewZafarDPFair()
	yhat := fitPredict(t, a, train, test)
	if id := metrics.IndividualDiscrimination(a.PredictFlipped(test, yhat)); id != 0 {
		t.Fatalf("Zafar drops S, ID must be 0: %v", id)
	}
}

func TestZafarEOImprovesOdds(t *testing.T) {
	train, test := trainTest(t, 3000)
	b := fair.NewBaseline()
	byhat := fitPredict(t, b, train, test)
	baseTPRB := math.Abs(metrics.TPRBalance(test, byhat))
	a := NewZafarEOFair()
	yhat := fitPredict(t, a, train, test)
	tprb := math.Abs(metrics.TPRBalance(test, yhat))
	if tprb > baseTPRB+0.02 {
		t.Fatalf("Zafar-EO should not worsen TPRB: %v vs baseline %v", tprb, baseTPRB)
	}
}

func TestZhaLeImprovesOddsAndBlindsAdversary(t *testing.T) {
	train, test := trainTest(t, 3000)
	b := fair.NewBaseline()
	byhat := fitPredict(t, b, train, test)
	baseTPRB := math.Abs(metrics.TPRBalance(test, byhat))
	a := NewZhaLe(3).(*ZhaLe)
	yhat := fitPredict(t, a, train, test)
	tprb := math.Abs(metrics.TPRBalance(test, yhat))
	if tprb >= baseTPRB {
		t.Fatalf("ZhaLe TPRB %v not below baseline %v", tprb, baseTPRB)
	}
	// The adversary should recover S barely better than the group prior.
	acc := a.AdversaryAccuracy(test)
	prior := 0.0
	for _, s := range test.S {
		prior += float64(s)
	}
	prior /= float64(test.Len())
	prior = math.Max(prior, 1-prior)
	if acc > prior+0.12 {
		t.Fatalf("adversary recovers S too well: %v (prior %v)", acc, prior)
	}
}

func TestKearnsReducesSubgroupFPRGap(t *testing.T) {
	train, test := trainTest(t, 3000)
	b := fair.NewBaseline()
	byhat := fitPredict(t, b, train, test)
	baseGap := math.Abs(metrics.TNRBalance(test, byhat))
	a := NewKearns()
	yhat := fitPredict(t, a, train, test)
	gap := math.Abs(metrics.TNRBalance(test, yhat))
	if gap > baseGap+0.02 {
		t.Fatalf("Kearns should not worsen the FPR gap: %v vs %v", gap, baseGap)
	}
}

func TestCelisFDRParity(t *testing.T) {
	train, test := trainTest(t, 3000)
	a := NewCelis().(*Celis)
	yhat := fitPredict(t, a, train, test)
	// FDR ratio on test must respect (approximately) the tau bound.
	var pos, fd [2]float64
	for i, p := range yhat {
		if p == 1 {
			pos[test.S[i]]++
			if test.Y[i] == 0 {
				fd[test.S[i]]++
			}
		}
	}
	if pos[0] > 10 && pos[1] > 10 {
		q0, q1 := fd[0]/pos[0], fd[1]/pos[1]
		lo, hi := math.Min(q0, q1), math.Max(q0, q1)
		if hi > 0 && lo/hi < 0.5 {
			t.Fatalf("FDR ratio %v too far below tau", lo/hi)
		}
	}
	th := a.threshold
	if th[0] <= 0 || th[0] >= 1 || th[1] <= 0 || th[1] >= 1 {
		t.Fatalf("thresholds out of range: %v", th)
	}
}

func TestThomasDPSafety(t *testing.T) {
	train, test := trainTest(t, 4000)
	a := NewThomasDP(5).(*Thomas)
	yhat := fitPredict(t, a, train, test)
	di := metrics.DIStar(metrics.DisparateImpact(test, yhat))
	if di < 0.7 {
		t.Fatalf("Thomas-DP DI* too low: %v", di)
	}
	// With 4000 tuples the safety test should normally pass.
	if a.NoSolutionFound {
		t.Log("warning: Thomas returned fallback (NSF)")
	}
}

func TestThomasEOImprovesOdds(t *testing.T) {
	train, test := trainTest(t, 4000)
	b := fair.NewBaseline()
	byhat := fitPredict(t, b, train, test)
	baseTPRB := math.Abs(metrics.TPRBalance(test, byhat))
	a := NewThomasEO(5)
	yhat := fitPredict(t, a, train, test)
	if got := math.Abs(metrics.TPRBalance(test, yhat)); got > baseTPRB+0.02 {
		t.Fatalf("Thomas-EO TPRB: %v vs baseline %v", got, baseTPRB)
	}
}

func TestPredictBeforeFitErrors(t *testing.T) {
	_, test := trainTest(t, 200)
	for _, a := range []fair.Approach{
		NewZafarDPFair(), NewZhaLe(1), NewKearns(), NewCelis(), NewThomasDP(1),
	} {
		if _, err := a.Predict(test); err == nil {
			t.Fatalf("%s: predict before fit must error", a.Name())
		}
	}
}

func TestStagesAndTargets(t *testing.T) {
	for _, a := range []fair.Approach{
		NewZafarDPFair(), NewZafarDPAcc(), NewZafarEOFair(), NewZhaLe(1),
		NewKearns(), NewCelis(), NewThomasDP(1), NewThomasEO(1),
	} {
		if a.Stage() != fair.StageIn {
			t.Fatalf("%s: stage %v", a.Name(), a.Stage())
		}
		// Celis targets predictive parity, which is outside the five
		// evaluated metrics, so an empty target set is correct for it.
		if len(a.Targets()) == 0 && a.Name() != "Celis-PP" {
			t.Fatalf("%s: no targets", a.Name())
		}
	}
}
