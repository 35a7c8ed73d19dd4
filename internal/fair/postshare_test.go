package fair_test

import (
	"testing"

	"fairbench/internal/classifier"
	"fairbench/internal/fair"
	"fairbench/internal/postproc"
	"fairbench/internal/rng"
	"fairbench/internal/synth"
)

// TestPostProcessorsShareOneBaseFitPerModel fits KamKar, Hardt and
// Pleiss on two models and predicts one test split. On a model sweep's
// armed split the three approaches of one model share one base
// classifier and its scores on the test split, and the two models do
// not; on an unarmed split, as every metric grid leaves it, each
// approach fits and scores its own.
func TestPostProcessorsShareOneBaseFitPerModel(t *testing.T) {
	for _, armed := range []bool{false, true} {
		train, test := synth.COMPAS(1000, 1).Data.Split(0.7, rng.New(5))
		if armed {
			train.EnableBatchCache()
		}
		type shared struct {
			clf    classifier.Classifier
			scores *float64
		}
		base := map[string]shared{}
		seen := map[shared]string{}
		for _, model := range []string{"SVM", "kNN"} {
			for _, a := range []fair.Approach{
				postproc.NewKamKar(model, 3), postproc.NewHardt(model, 3), postproc.NewPleiss(model, 3),
			} {
				if err := a.Fit(train); err != nil {
					t.Fatal(err)
				}
				if _, err := a.Predict(test); err != nil {
					t.Fatal(err)
				}
				p := a.(*fair.PostProcessed)
				got := shared{fair.BaseClassifier(p), &fair.OwnScores(p)[0]}
				if !armed {
					for prev, name := range seen {
						if prev.clf == got.clf || prev.scores == got.scores {
							t.Fatalf("unarmed: %s on %s reused %s's base fit or scores", a.Name(), model, name)
						}
					}
					seen[got] = a.Name()
					continue
				}
				if prev, ok := base[model]; !ok {
					base[model] = got
				} else if got != prev {
					t.Fatalf("armed: %s on %s fitted or scored its own base", a.Name(), model)
				}
			}
		}
		if armed && (base["SVM"].clf == base["kNN"].clf || base["SVM"].scores == base["kNN"].scores) {
			t.Fatal("armed: SVM and kNN cells share one base fit or its scores")
		}
	}
}
