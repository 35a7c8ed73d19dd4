package preproc

import (
	"math"
	"testing"

	"fairbench/internal/fair"
	"fairbench/internal/metrics"
	"fairbench/internal/rng"
	"fairbench/internal/synth"
)

func TestMadrasRepresentationShape(t *testing.T) {
	src := synth.COMPAS(1500, 1)
	m := &Madras{Seed: 2}
	out, err := m.Repair(src.Data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dim() != 8 {
		t.Fatalf("representation width: %d", out.Dim())
	}
	if out.Len() != src.Data.Len() {
		t.Fatal("size must be preserved")
	}
	for _, row := range out.X {
		for _, v := range row {
			if v < -1 || v > 1 || math.IsNaN(v) {
				t.Fatalf("tanh representation out of range: %v", v)
			}
		}
	}
	// TransformRow agrees with the training encoding.
	enc := m.TransformRow(src.Data.X[3], src.Data.S[3])
	for j := range enc {
		if math.Abs(enc[j]-out.X[3][j]) > 1e-9 {
			t.Fatal("TransformRow disagrees with Repair encoding")
		}
	}
}

func TestMadrasImprovesDI(t *testing.T) {
	src := synth.COMPAS(3000, 3)
	train, test := src.Data.Split(0.7, rng.New(5))
	base := fair.NewBaseline()
	if err := base.Fit(train); err != nil {
		t.Fatal(err)
	}
	byhat, _ := base.Predict(test)
	baseDI := metrics.DIStar(metrics.DisparateImpact(test, byhat))

	a := NewMadras("", 7)
	if err := a.Fit(train); err != nil {
		t.Fatal(err)
	}
	yhat, err := a.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	di := metrics.DIStar(metrics.DisparateImpact(test, yhat))
	if di < baseDI-0.02 {
		t.Fatalf("Madras DI* %v below baseline %v", di, baseDI)
	}
	// The representation drops S entirely: ID must be 0.
	if id := metrics.IndividualDiscrimination(a.PredictFlipped(test, yhat)); id != 0 {
		t.Fatalf("Madras is S-blind, ID must be 0: %v", id)
	}
}
