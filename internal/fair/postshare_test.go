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
// Pleiss on two models. On a model sweep's armed split the three
// approaches of one model share one base classifier and the two models
// do not; on an unarmed split, as every metric grid leaves it, each
// approach fits its own.
func TestPostProcessorsShareOneBaseFitPerModel(t *testing.T) {
	for _, armed := range []bool{false, true} {
		train, _ := synth.COMPAS(1000, 1).Data.Split(0.7, rng.New(5))
		if armed {
			train.EnableBatchCache()
		}
		base := map[string]classifier.Classifier{}
		seen := map[classifier.Classifier]string{}
		for _, model := range []string{"SVM", "kNN"} {
			for _, a := range []fair.Approach{
				postproc.NewKamKar(model, 3), postproc.NewHardt(model, 3), postproc.NewPleiss(model, 3),
			} {
				if err := a.Fit(train); err != nil {
					t.Fatal(err)
				}
				clf := fair.BaseClassifier(a.(*fair.PostProcessed))
				if !armed {
					if prev, ok := seen[clf]; ok {
						t.Fatalf("unarmed: %s on %s reused %s's base fit", a.Name(), model, prev)
					}
					seen[clf] = a.Name()
					continue
				}
				if prev, ok := base[model]; !ok {
					base[model] = clf
				} else if clf != prev {
					t.Fatalf("armed: %s on %s fitted its own base", a.Name(), model)
				}
			}
		}
		if armed && base["SVM"] == base["kNN"] {
			t.Fatal("armed: SVM and kNN cells share one base fit")
		}
	}
}
