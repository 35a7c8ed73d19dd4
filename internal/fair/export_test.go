package fair

import "fairbench/internal/classifier"

// BaseClassifier exposes a fitted post-processor's base model to the
// external tests, which compare identities to observe sharing.
func BaseClassifier(p *PostProcessed) classifier.Classifier { return p.base.clf }
