// Package classifier implements the binary classifiers the benchmark pairs
// with fair approaches: logistic regression (the paper's default and its
// fairness-unaware baseline), linear SVM, k-nearest neighbors, random
// forest, and a one-hidden-layer MLP — the five model families of the
// model-sensitivity experiment (Section 4.5, Appendix F).
//
// All models share the Classifier interface over plain feature matrices;
// whether the sensitive attribute is part of the features is decided by
// the caller (the fair-approach layer).
package classifier

import (
	"fmt"

	"fairbench/internal/matrix"
)

// Classifier is a binary probabilistic classifier. Fit trains on the
// design matrix x (row-major), labels y in {0,1}, and optional per-row
// weights w (nil = uniform).
type Classifier interface {
	Fit(x [][]float64, y []int, w []float64) error
	// PredictProba returns P(Y=1 | x).
	PredictProba(x []float64) float64
	// PredictProbaInto sets dst[i] to PredictProba(x.Row(i)), bit for
	// bit, for every row of x; dst must have length x.Rows. It is the
	// block form the fair approaches score a test split with, and it is
	// safe for concurrent use on one fitted model.
	PredictProbaInto(dst []float64, x matrix.Dense)
}

// New returns a fresh classifier of the named model family with the
// paper's hyper-parameters: "SVM", "kNN", "RF" or "MLP"; any other name,
// "LR" and "" included, gives logistic regression. Approaches name their
// model rather than carry a constructor, so the name can key the base
// fits a model sweep's cells share.
func New(model string) Classifier {
	switch model {
	case "SVM":
		return NewSVM()
	case "kNN":
		return NewKNN()
	case "RF":
		return NewForest()
	case "MLP":
		return NewMLP()
	default:
		return NewLogistic()
	}
}

// Predict thresholds PredictProba at 0.5.
func Predict(c Classifier, x []float64) int {
	if c.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// PredictAll applies c to every row of x.
func PredictAll(c Classifier, x [][]float64) []int {
	return Labels(ProbaAll(c, x))
}

// ProbaAll returns P(Y=1|x) for every row of x, scoring in one block
// when x is a view of one flat backing (as dataset.FeatureMatrix builds
// it).
func ProbaAll(c Classifier, x [][]float64) []float64 {
	out := make([]float64, len(x))
	if dm, ok := matrix.AsDense(x); ok {
		c.PredictProbaInto(out, dm)
		return out
	}
	for i, row := range x {
		out[i] = c.PredictProba(row)
	}
	return out
}

// Labels thresholds probabilities at 0.5, as Predict does.
func Labels(proba []float64) []int {
	out := make([]int, len(proba))
	for i, p := range proba {
		if p >= 0.5 {
			out[i] = 1
		}
	}
	return out
}

// predictRows is PredictProbaInto for the families that score one row at
// a time.
func predictRows(c Classifier, dst []float64, x matrix.Dense) {
	if len(dst) != x.Rows {
		panic(fmt.Sprintf("classifier: PredictProbaInto into %d outputs for %d rows", len(dst), x.Rows))
	}
	for i := range dst {
		dst[i] = c.PredictProba(x.Row(i))
	}
}

func checkFitInput(x [][]float64, y []int, w []float64) error {
	if len(x) == 0 {
		return fmt.Errorf("classifier: empty training set")
	}
	if len(y) != len(x) {
		return fmt.Errorf("classifier: %d rows but %d labels", len(x), len(y))
	}
	if w != nil && len(w) != len(x) {
		return fmt.Errorf("classifier: %d rows but %d weights", len(x), len(w))
	}
	// A design built by dataset.FeatureMatrix arrives as views of one flat
	// backing; a successful AsDense certifies every row's shape by
	// aliasing, so the per-row semantic scan is skipped.
	if _, ok := matrix.AsDense(x); ok {
		return nil
	}
	d := len(x[0])
	for i, row := range x {
		if len(row) != d {
			return fmt.Errorf("classifier: row %d has %d features, want %d", i, len(row), d)
		}
	}
	return nil
}
