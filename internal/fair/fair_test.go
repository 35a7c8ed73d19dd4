package fair

import (
	"testing"

	"fairbench/internal/dataset"
	"fairbench/internal/rng"
	"fairbench/internal/synth"
)

func split(t *testing.T) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	src := synth.COMPAS(1500, 1)
	return src.Data.Split(0.7, rng.New(5))
}

func TestBaselineFitPredict(t *testing.T) {
	train, test := split(t)
	b := NewBaseline()
	if b.Stage() != StageNone || b.Name() != "LR" || b.Targets() != nil {
		t.Fatal("baseline identity")
	}
	if err := b.Fit(train); err != nil {
		t.Fatal(err)
	}
	yhat, err := b.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	if len(yhat) != test.Len() {
		t.Fatalf("prediction length %d", len(yhat))
	}
	correct := 0
	for i := range yhat {
		if yhat[i] == test.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(test.Len()); acc < 0.55 {
		t.Fatalf("baseline accuracy %v below chance band", acc)
	}
	p := b.Proba(test.X[0], test.S[0])
	if p < 0 || p > 1 {
		t.Fatalf("probability %v", p)
	}
}

func TestBaselineUnfitted(t *testing.T) {
	_, test := split(t)
	b := NewBaseline()
	if _, err := b.Predict(test); err == nil {
		t.Fatal("predict before fit must error")
	}
}

// identityRepairer is a no-op pre-processing mechanism.
type identityRepairer struct{}

func (identityRepairer) RepairName() string { return "identity" }
func (identityRepairer) Repair(d *dataset.Dataset) (*dataset.Dataset, error) {
	return d.Clone(), nil
}

func TestPreProcessedWrapper(t *testing.T) {
	train, test := split(t)
	p := &PreProcessed{
		ApproachName: "Identity",
		Target:       []Metric{MetricDI},
		Mechanism:    identityRepairer{},
		IncludeS:     true,
	}
	if p.Stage() != StagePre {
		t.Fatal("stage")
	}
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	yhat, err := p.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	// Identity repair + LR must behave like the baseline.
	b := NewBaseline()
	if err := b.Fit(train); err != nil {
		t.Fatal(err)
	}
	byhat, _ := b.Predict(test)
	same := 0
	for i := range yhat {
		if yhat[i] == byhat[i] {
			same++
		}
	}
	if float64(same)/float64(len(yhat)) < 0.95 {
		t.Fatalf("identity pre-processing diverges from baseline: %d/%d equal", same, len(yhat))
	}
}

// sTransformer marks transformed rows so the test can verify the sTrue /
// sInput split of PredictIntervened.
type sTransformer struct{ identityRepairer }

func (sTransformer) TransformRow(x []float64, s int) []float64 {
	out := append([]float64(nil), x...)
	out[0] += float64(s) * 1000 // group-dependent transform
	return out
}

func (t sTransformer) Fork() TestTransformer { return t }

func TestPredictIntervenedUsesTrueGroupForTransform(t *testing.T) {
	train, test := split(t)
	p := &PreProcessed{
		ApproachName: "STrans",
		Mechanism:    sTransformer{},
		IncludeS:     false, // classifier never sees S
	}
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	if p.transform == nil {
		t.Fatal("fitted pipeline dropped the mechanism's test transform")
	}
	// With S excluded from features and the transform pinned to sTrue,
	// flipping sInput must never change the prediction.
	for i := 0; i < 50; i++ {
		a := p.PredictIntervened(test.X[i], test.S[i], test.S[i])
		b := p.PredictIntervened(test.X[i], test.S[i], 1-test.S[i])
		if a != b {
			t.Fatal("flip of sInput changed an S-blind pipeline's prediction")
		}
	}
}

// constAdjuster returns a fixed per-group probability.
type constAdjuster struct{ p [2]float64 }

func (constAdjuster) AdjustName() string { return "const" }
func (constAdjuster) FitAdjust(*dataset.Dataset, []float64) error {
	return nil
}
func (c constAdjuster) AdjustedProba(_ float64, s int) float64 { return c.p[s] }

func TestPostProcessedWrapper(t *testing.T) {
	train, test := split(t)
	p := &PostProcessed{
		ApproachName: "Const",
		Target:       []Metric{MetricDI},
		Mechanism:    constAdjuster{p: [2]float64{1, 0}},
		IncludeS:     true,
		Seed:         3,
	}
	if p.Stage() != StagePost {
		t.Fatal("stage")
	}
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	yhat, err := p.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range yhat {
		want := 1 - test.S[i] // adjuster forces unpriv->1, priv->0
		if yhat[i] != want {
			t.Fatalf("tuple %d: got %d want %d", i, yhat[i], want)
		}
	}
	// PredictOne thresholds the adjusted probability.
	if p.PredictOne(test.X[0], 0) != 1 || p.PredictOne(test.X[0], 1) != 0 {
		t.Fatal("PredictOne thresholding")
	}
}

func TestStageString(t *testing.T) {
	cases := map[Stage]string{StagePre: "pre", StageIn: "in", StagePost: "post", StageNone: "none"}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("%v", s)
		}
	}
}
