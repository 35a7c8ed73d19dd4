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
// Pleiss on two models over one armed split: the three approaches of one
// model must share one base classifier, and the two models must not.
func TestPostProcessorsShareOneBaseFitPerModel(t *testing.T) {
	for _, sweep := range []bool{false, true} {
		train, _ := synth.COMPAS(1000, 1).Data.Split(0.7, rng.New(5))
		train.EnableDesignCache()
		train.EnableBatchCache(sweep)
		base := map[string]classifier.Classifier{}
		for _, model := range []string{"SVM", "kNN"} {
			for _, a := range []fair.Approach{
				postproc.NewKamKar(model, 3), postproc.NewHardt(model, 3), postproc.NewPleiss(model, 3),
			} {
				if err := a.Fit(train); err != nil {
					t.Fatal(err)
				}
				clf := fair.BaseClassifier(a.(*fair.PostProcessed))
				if prev, ok := base[model]; !ok {
					base[model] = clf
				} else if clf != prev {
					t.Fatalf("sweep=%v: %s on %s fitted its own base", sweep, a.Name(), model)
				}
			}
		}
		if base["SVM"] == base["kNN"] {
			t.Fatalf("sweep=%v: SVM and kNN cells share one base fit", sweep)
		}
	}
}
