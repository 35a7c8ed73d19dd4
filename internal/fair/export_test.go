package fair

import "fairbench/internal/classifier"

// BaseClassifier exposes a fitted post-processor's base model to the
// external tests, which compare identities to observe sharing.
func BaseClassifier(p *PostProcessed) classifier.Classifier { return p.base.clf }

// OwnScores exposes the base's scores on the test split a post-processor
// last predicted, so the external tests can observe their sharing.
func OwnScores(p *PostProcessed) []float64 { return p.scores.own }

// RowLabel is the per-row reference the block ID pass is held to: it
// labels the single tuple x, whose true group is sTrue, with sInput shown
// to the classifier as its sensitive value, building and scoring one row.
// Test transforms see sTrue; a post-processor thresholds its adjusted
// probability for group sInput. ok is false for approaches this package
// does not define.
func RowLabel(a Approach, x []float64, sTrue, sInput int) (label int, ok bool) {
	switch p := a.(type) {
	case *Baseline:
		return classifier.Labels([]float64{p.clf.PredictProba(featureRow(p.std, x, p.IncludeS, sInput))})[0], true
	case *PreProcessed:
		row := x
		if p.transform != nil {
			row = p.transform.TransformRow(x, sTrue)
		}
		return classifier.Labels([]float64{p.clf.PredictProba(featureRow(p.std, row, p.IncludeS, sInput))})[0], true
	case *PostProcessed:
		pr := p.base.clf.PredictProba(featureRow(p.base.std, x, p.base.IncludeS, sInput))
		return p.threshold(pr, sInput), true
	}
	return 0, false
}

// featureRow standardizes a copy of x and appends s when includeS.
func featureRow(std interface{ ApplyRow([]float64) }, x []float64, includeS bool, s int) []float64 {
	row := append([]float64(nil), x...)
	std.ApplyRow(row)
	if includeS {
		row = append(row, float64(s))
	}
	return row
}
