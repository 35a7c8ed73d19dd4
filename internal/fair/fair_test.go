package fair

import (
	"slices"
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
	for _, p := range b.proba(test, false) {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v", p)
		}
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

// sTransformer marks transformed rows so the test can verify that the
// flip pass transforms at the true group and flips only the classifier's
// S input.
type sTransformer struct{ identityRepairer }

func (sTransformer) TransformRow(x []float64, s int) []float64 {
	out := append([]float64(nil), x...)
	out[0] += float64(s) * 1000 // group-dependent transform
	return out
}

func (t sTransformer) Fork() TestTransformer { return t }

func TestPredictFlippedUsesTrueGroupForTransform(t *testing.T) {
	train, test := split(t)
	// With S excluded from the features and the transform pinned to the
	// true group, flipping S must never change a label.
	blind := &PreProcessed{ApproachName: "STrans", Mechanism: sTransformer{}}
	if err := blind.Fit(train); err != nil {
		t.Fatal(err)
	}
	if blind.transform == nil {
		t.Fatal("fitted pipeline dropped the mechanism's test transform")
	}
	yhat, err := blind.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	if factual, flipped := blind.PredictFlipped(test, yhat); !slices.Equal(factual, yhat) || !slices.Equal(flipped, yhat) {
		t.Fatal("flipping S changed an S-blind pipeline's labels")
	}
	// With S a classifier input, each flipped label is the row query at
	// (transform at the true group, S input flipped).
	p := &PreProcessed{ApproachName: "STrans", Mechanism: sTransformer{}, IncludeS: true}
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	if yhat, err = p.Predict(test); err != nil {
		t.Fatal(err)
	}
	factual, flipped := p.PredictFlipped(test, yhat)
	if !slices.Equal(factual, yhat) {
		t.Fatal("factual labels differ from Predict's")
	}
	rowLabel := func(x []float64, sTransform, sInput int) int {
		label, _ := RowLabel(p, x, sTransform, sInput)
		return label
	}
	transformedAtFlip := 0
	for i := range test.X {
		x, s := test.X[i], test.S[i]
		if want := rowLabel(x, s, s); yhat[i] != want {
			t.Fatalf("tuple %d: Predict %d, row query %d", i, yhat[i], want)
		}
		if want := rowLabel(x, s, 1-s); flipped[i] != want {
			t.Fatalf("tuple %d: flipped label %d, row query at the true group %d", i, flipped[i], want)
		}
		if rowLabel(x, 1-s, 1-s) != flipped[i] {
			transformedAtFlip++
		}
	}
	if transformedAtFlip == 0 {
		t.Fatal("transforming at the flipped group changes no label: the test cannot tell the groups apart")
	}
}

// constAdjuster returns a fixed per-group probability.
type constAdjuster struct{ p [2]float64 }

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
	// The ID labels threshold the adjusted probability, the flipped ones
	// at the flipped group.
	factual, flipped := p.PredictFlipped(test, yhat)
	for i, s := range test.S {
		if factual[i] != 1-s || flipped[i] != s {
			t.Fatalf("tuple %d (S=%d): factual %d, flipped %d", i, s, factual[i], flipped[i])
		}
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
