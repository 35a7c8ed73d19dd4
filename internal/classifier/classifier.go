// Package classifier implements the binary classifiers the benchmark pairs
// with fair approaches: logistic regression (the paper's default and its
// fairness-unaware baseline), linear SVM, k-nearest neighbors, random
// forest, and a one-hidden-layer MLP — the five model families of the
// model-sensitivity experiment (Section 4.5, Appendix F).
//
// All models share the Classifier interface over one design layout,
// matrix.Dense; whether the sensitive attribute is part of the features
// is decided by the caller (the fair-approach layer).
package classifier

import (
	"fmt"

	"fairbench/internal/matrix"
)

// Classifier is a binary probabilistic classifier. Fit trains on the
// design matrix x, labels y in {0,1}, and optional per-row weights w
// (nil = uniform); it only reads x, y and w.
type Classifier interface {
	Fit(x matrix.Dense, y []int, w []float64) error
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

// PredictAll labels every row of x.
func PredictAll(c Classifier, x matrix.Dense) []int {
	return Labels(ProbaAll(c, x))
}

// ProbaAll returns P(Y=1|x) for every row of x, scored in one block.
func ProbaAll(c Classifier, x matrix.Dense) []float64 {
	out := make([]float64, x.Rows)
	c.PredictProbaInto(out, x)
	return out
}

// Labels thresholds probabilities at 0.5.
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

// checkFitInput rejects an empty design and label or weight counts that
// differ from its row count.
func checkFitInput(x matrix.Dense, y []int, w []float64) error {
	if x.Rows == 0 {
		return fmt.Errorf("classifier: empty training set")
	}
	if len(y) != x.Rows {
		return fmt.Errorf("classifier: %d rows but %d labels", x.Rows, len(y))
	}
	if w != nil && len(w) != x.Rows {
		return fmt.Errorf("classifier: %d rows but %d weights", x.Rows, len(w))
	}
	return nil
}
