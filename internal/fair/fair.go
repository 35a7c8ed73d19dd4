// Package fair defines the paper's central abstraction: a fair
// classification approach, characterized by the pipeline stage where its
// fairness-enforcing mechanism applies (pre-, in-, or post-processing,
// Section 3) and the fairness notion(s) it targets (Figure 5). The package
// provides the stage wrappers that turn repairers and prediction adjusters
// into complete approaches, and the fairness-unaware logistic-regression
// baseline every experiment compares against.
package fair

import (
	"fmt"

	"fairbench/internal/classifier"
	"fairbench/internal/dataset"
	"fairbench/internal/matrix"
	"fairbench/internal/rng"
)

// Stage is the pipeline stage where fairness is enforced.
type Stage int

const (
	// StagePre repairs the training data before learning.
	StagePre Stage = iota
	// StageIn modifies the learning procedure itself.
	StageIn
	// StagePost modifies the predictions of a trained classifier.
	StagePost
	// StageNone marks the fairness-unaware baseline.
	StageNone
)

// String returns the paper's name for the stage.
func (s Stage) String() string {
	switch s {
	case StagePre:
		return "pre"
	case StageIn:
		return "in"
	case StagePost:
		return "post"
	default:
		return "none"
	}
}

// Metric names an evaluation fairness metric an approach optimizes for
// (the ↑ arrows of Figure 7).
type Metric string

// The five evaluated fairness metrics (Figure 4).
const (
	MetricDI   Metric = "DI*"
	MetricTPRB Metric = "1-|TPRB|"
	MetricTNRB Metric = "1-|TNRB|"
	MetricID   Metric = "1-ID"
	MetricTE   Metric = "1-|TE|"
)

// Approach is a complete fair classification pipeline: Fit consumes
// training data; Predict labels a test set; PredictFlipped labels it
// again with S flipped, the intervention the Individual Discrimination
// metric makes.
type Approach interface {
	Name() string
	Stage() Stage
	// Targets lists the fairness metrics the approach optimizes for.
	Targets() []Metric
	Fit(train *dataset.Dataset) error
	Predict(test *dataset.Dataset) ([]int, error)
	// PredictFlipped returns the two label vectors the ID metric
	// compares, given yhat, Predict's labels on test. factual labels each
	// tuple at its own S; it is yhat itself wherever Predict is
	// deterministic. flipped labels each tuple with its classifier-input
	// S flipped; group-dependent test transforms keep the true group.
	// When S is no classifier input, flipped is factual and no pass runs.
	// Call it only on a fitted approach whose Predict succeeded on test.
	PredictFlipped(test *dataset.Dataset, yhat []int) (factual, flipped []int)
}

// Repairer is a pre-processing mechanism: it repairs the training data so
// a downstream classifier learns the target fairness notion.
type Repairer interface {
	Repair(train *dataset.Dataset) (*dataset.Dataset, error)
}

// TestTransformer is implemented by repairers that also transform test
// data (Feld, Calmon and Madras in the benchmark). The returned slice may
// be scratch storage reused by the transformer's next TransformRow call:
// callers consume or copy it before transforming another row (as
// dataset.Standardizer.Inputs does), and must not mutate it.
type TestTransformer interface {
	TransformRow(x []float64, s int) []float64
	// Fork returns a transformer that shares the receiver's fitted state,
	// read-only, and owns fresh scratch. Cells that share one fitted
	// repair each transform through their own fork, so they can predict
	// concurrently; none calls TransformRow on the shared instance.
	Fork() TestTransformer
}

// Baseline is the fairness-unaware logistic regression the paper overlays
// on every plot. The sensitive attribute is part of the feature vector.
type Baseline struct {
	// Model names the classifier family (see classifier.New; "" is
	// logistic regression).
	Model    string
	IncludeS bool

	clf classifier.Classifier
	std *dataset.Standardizer
}

// NewBaseline returns the default LR baseline with S included.
func NewBaseline() *Baseline { return &Baseline{IncludeS: true} }

// Name implements Approach.
func (b *Baseline) Name() string { return "LR" }

// Stage implements Approach.
func (b *Baseline) Stage() Stage { return StageNone }

// Targets implements Approach: the baseline optimizes no fairness metric.
func (b *Baseline) Targets() []Metric { return nil }

// Fit trains the underlying classifier on standardized features; the
// labels and weights are read straight from train (standardization never
// touches them).
func (b *Baseline) Fit(train *dataset.Dataset) error {
	std, x := train.StandardizedDesign(b.IncludeS)
	b.std = std
	b.clf = classifier.New(b.Model)
	return b.clf.Fit(x, train.Y, train.Weights)
}

// Predict labels every tuple of test.
func (b *Baseline) Predict(test *dataset.Dataset) ([]int, error) {
	if b.clf == nil {
		return nil, fmt.Errorf("fair: baseline not fitted")
	}
	return classifier.Labels(b.proba(test, false)), nil
}

// PredictFlipped implements Approach.
func (b *Baseline) PredictFlipped(test *dataset.Dataset, yhat []int) (factual, flipped []int) {
	if !b.IncludeS {
		return yhat, yhat
	}
	return yhat, classifier.Labels(b.proba(test, true))
}

// proba returns the positive probability of every tuple of test, scored
// in one block, with each tuple's S flipped when flipS.
func (b *Baseline) proba(test *dataset.Dataset, flipS bool) []float64 {
	x := b.std.Inputs(test, b.IncludeS, flipS, nil)
	out := make([]float64, x.Rows)
	b.clf.PredictProbaInto(out, x)
	return out
}

// PreProcessed wraps a Repairer and a downstream classifier into a
// complete pre-processing approach. Pre-processing is model-agnostic: the
// Model may name any classifier family (Section 4.5 swaps it).
type PreProcessed struct {
	ApproachName string
	Target       []Metric
	Mechanism    Repairer
	// Model names the downstream classifier family (see classifier.New;
	// "" is logistic regression).
	Model string
	// IncludeS controls whether the downstream model sees S. Approaches
	// like Feld drop it (their repair makes X independent of S).
	IncludeS bool

	clf classifier.Classifier
	std *dataset.Standardizer
	// transform is this cell's fork of the fitted mechanism's test
	// transform (nil when the mechanism has none).
	transform TestTransformer
}

// Name implements Approach.
func (p *PreProcessed) Name() string { return p.ApproachName }

// Stage implements Approach.
func (p *PreProcessed) Stage() Stage { return StagePre }

// Targets implements Approach.
func (p *PreProcessed) Targets() []Metric { return p.Target }

// repairKey identifies one shareable repair within a model sweep.
// A repair depends on the approach (its mechanism, configured alike in
// every cell of a grid) and the training split, never on the downstream
// model; IncludeS picks the design's columns.
type repairKey struct {
	approach string
	includeS bool
}

// repairedDesign is the model-independent half of PreProcessed.Fit: the
// fitted mechanism, the standardizer fitted on its repaired data, and the
// standardized repaired design with its labels and weights. All of it is
// read-only once built.
type repairedDesign struct {
	mech Repairer
	std  *dataset.Standardizer
	x    matrix.Dense
	y    []int
	w    []float64
}

// repairDesign repairs train with mech and standardizes the result —
// exactly the computation every sharing cell would run alone, so the
// memoized result is bit-identical to per-cell fitting.
func repairDesign(mech Repairer, train *dataset.Dataset, includeS bool) (*repairedDesign, error) {
	repaired, err := mech.Repair(train)
	if err != nil {
		return nil, err
	}
	std, x := repaired.StandardizedDesign(includeS)
	return &repairedDesign{mech: mech, std: std, x: x, y: repaired.Y, w: repaired.Weights}, nil
}

// Fit repairs the training data and trains the downstream classifier.
//
// When train is a model sweep's armed split (see dataset.BatchCache), the
// cells of one approach share one repair per (approach, IncludeS): the
// first cell to arrive repairs with its own mechanism, and every cell
// then fits only its own classifier on the shared design. On an unarmed
// split every cell repairs for itself.
func (p *PreProcessed) Fit(train *dataset.Dataset) error {
	v, err := train.Batch().Do(repairKey{approach: p.ApproachName, includeS: p.IncludeS}, func() (any, error) {
		return repairDesign(p.Mechanism, train, p.IncludeS)
	})
	if err != nil {
		return fmt.Errorf("%s: repair: %w", p.ApproachName, err)
	}
	r := v.(*repairedDesign)
	p.std = r.std
	p.transform = nil
	if t, ok := r.mech.(TestTransformer); ok {
		p.transform = t.Fork()
	}
	p.clf = classifier.New(p.Model)
	if err := p.clf.Fit(r.x, r.y, r.w); err != nil {
		return fmt.Errorf("%s: fit: %w", p.ApproachName, err)
	}
	return nil
}

// Predict labels every tuple of test, applying the mechanism's test
// transform when it has one.
func (p *PreProcessed) Predict(test *dataset.Dataset) ([]int, error) {
	if p.clf == nil {
		return nil, fmt.Errorf("%s: not fitted", p.ApproachName)
	}
	return p.labels(test, false), nil
}

// PredictFlipped implements Approach. Group-dependent test transforms
// (Feld, Calmon) always use the true group, so approaches that drop S
// from the features trivially satisfy the ID metric, as the paper
// observes (Section 4.2).
func (p *PreProcessed) PredictFlipped(test *dataset.Dataset, yhat []int) (factual, flipped []int) {
	if !p.IncludeS {
		return yhat, yhat
	}
	return yhat, p.labels(test, true)
}

// labels labels every tuple of test in one block, with each tuple's
// classifier-input S flipped when flipS.
func (p *PreProcessed) labels(test *dataset.Dataset, flipS bool) []int {
	var transform func([]float64, int) []float64
	if p.transform != nil {
		transform = p.transform.TransformRow
	}
	x := p.std.Inputs(test, p.IncludeS, flipS, transform)
	proba := make([]float64, x.Rows)
	p.clf.PredictProbaInto(proba, x)
	return classifier.Labels(proba)
}

// Adjuster is a post-processing mechanism: given a trained base model's
// probabilities on labeled data, it fits a group-dependent adjustment of
// predictions.
type Adjuster interface {
	// FitAdjust learns the adjustment from training labels, sensitive
	// values, and base probabilities.
	FitAdjust(train *dataset.Dataset, proba []float64) error
	// AdjustedProba maps a base probability to the adjusted probability of
	// a positive prediction for group s.
	AdjustedProba(p float64, s int) float64
}

// PostProcessed wraps a base classifier and an Adjuster into a complete
// post-processing approach. Randomized adjusters (Hardt, Pleiss) realize
// their mixing probabilities by seeded sampling in Predict; the ID
// metric's labels threshold the adjusted probability instead, exposing
// the deterministic group-dependent decision rule.
//
// The base scores each test tuple at its own S and at 1−S at most once
// per cell: Predict, the ID metric's factual labels and its flipped
// labels all derive from those two probability vectors.
type PostProcessed struct {
	ApproachName string
	Target       []Metric
	Mechanism    Adjuster
	// Model names the base classifier family (see classifier.New; "" is
	// logistic regression).
	Model    string
	IncludeS bool
	Seed     int64

	base *Baseline
	// batch is the armed training split's cache (nil when unarmed), which
	// also shares the base's test scores.
	batch *dataset.BatchCache
	// scored and scores are the test split Predict last scored and the
	// base's probabilities on it.
	scored *dataset.Dataset
	scores *testScores
}

// Name implements Approach.
func (p *PostProcessed) Name() string { return p.ApproachName }

// Stage implements Approach.
func (p *PostProcessed) Stage() Stage { return StagePost }

// Targets implements Approach.
func (p *PostProcessed) Targets() []Metric { return p.Target }

// postBaseKey identifies one shareable base fit within a model sweep:
// the base model, the held-out part, and the probabilities over it are
// fully determined by (model, seed, includeS) given the training split.
type postBaseKey struct {
	model    string
	seed     int64
	includeS bool
}

// postScoresKey identifies the shared base's scores on one test split.
type postScoresKey struct {
	postBaseKey
	test *dataset.Dataset
}

// postBase is the shared artifact of one base fit: the fitted Baseline,
// the held-out 30% part, and the base's probabilities over it. All three
// are read-only once built.
type postBase struct {
	base    *Baseline
	valPart *dataset.Dataset
	proba   []float64
}

// testScores are a base's probabilities on one test split: own at each
// tuple's S, flip at 1−S (nil until the ID pass needs it, unless the
// scores are shared). Read-only once built.
type testScores struct {
	own, flip []float64
}

// fitPostBase performs the base-fit half of PostProcessed.Fit — exactly
// the computation every sharing cell would run alone, so the memoized
// result is bit-identical to per-cell fitting.
func fitPostBase(train *dataset.Dataset, model string, includeS bool, seed int64) (*postBase, error) {
	b := &Baseline{Model: model, IncludeS: includeS}
	fitPart, valPart := train.Split(0.7, rng.New(seed+977))
	if err := b.Fit(fitPart); err != nil {
		return nil, err
	}
	return &postBase{base: b, valPart: valPart, proba: b.proba(valPart, false)}, nil
}

// Fit trains the base model on 70% of the training data and fits the
// adjuster on the remaining held-out 30%. Fitting the adjustment on data
// the base model has not memorized keeps the derived rates calibrated for
// deployment — with overfitting-prone bases (deep random forests) the
// training-set confusion matrix is near-perfect and would mislead the
// adjuster, which is exactly why post-processing methods fit on holdouts.
//
// On a model sweep's armed split (see dataset.BatchCache), cells share
// one base fit per (Model, Seed, IncludeS): the split, the fitted model,
// and the held-out probabilities are identical across them, so only the
// adjuster differs per cell. On an unarmed split every cell fits its own
// base, so each approach's timing includes it.
func (p *PostProcessed) Fit(train *dataset.Dataset) error {
	p.batch = train.Batch()
	v, err := p.batch.Do(p.baseKey(), func() (any, error) {
		return fitPostBase(train, p.Model, p.IncludeS, p.Seed)
	})
	if err != nil {
		return fmt.Errorf("%s: base fit: %w", p.ApproachName, err)
	}
	sh := v.(*postBase)
	p.base, p.scored, p.scores = sh.base, nil, nil
	if err := p.Mechanism.FitAdjust(sh.valPart, sh.proba); err != nil {
		return fmt.Errorf("%s: adjust fit: %w", p.ApproachName, err)
	}
	return nil
}

func (p *PostProcessed) baseKey() postBaseKey {
	return postBaseKey{model: p.Model, seed: p.Seed, includeS: p.IncludeS}
}

// Predict labels the test set, sampling randomized adjustments with a
// seeded generator so runs are reproducible.
//
// On a model sweep's armed split the cells that share a base fit also
// share its scores on test, at S and at 1−S, built by the first cell to
// predict and so charged to its timing like the shared base fit.
// Elsewhere Predict scores at S only, and the ID pass scores at 1−S
// after the timed part of the cell.
func (p *PostProcessed) Predict(test *dataset.Dataset) ([]int, error) {
	if p.base == nil {
		return nil, fmt.Errorf("%s: not fitted", p.ApproachName)
	}
	v, _ := p.batch.Do(postScoresKey{p.baseKey(), test}, func() (any, error) {
		sc := &testScores{own: p.base.proba(test, false)}
		if p.batch != nil {
			sc.flip = p.flipScores(test, sc.own)
		}
		return sc, nil
	})
	p.scored, p.scores = test, v.(*testScores)
	g := rng.New(p.Seed + 1)
	out := make([]int, test.Len())
	for i, pr := range p.scores.own {
		out[i] = g.Bernoulli(p.Mechanism.AdjustedProba(pr, test.S[i]))
	}
	return out, nil
}

// PredictFlipped implements Approach: both label vectors threshold the
// adjusted probability at 0.5, the flipped one adjusting the base's
// score at 1−S for group 1−S.
func (p *PostProcessed) PredictFlipped(test *dataset.Dataset, _ []int) (factual, flipped []int) {
	sc := p.scores
	if p.scored != test {
		sc = &testScores{own: p.base.proba(test, false)}
	}
	flip := sc.flip
	if flip == nil {
		flip = p.flipScores(test, sc.own)
	}
	factual = make([]int, len(sc.own))
	flipped = make([]int, len(sc.own))
	for i, s := range test.S {
		factual[i] = p.threshold(sc.own[i], s)
		flipped[i] = p.threshold(flip[i], 1-s)
	}
	return factual, flipped
}

// flipScores returns the base's scores on test at 1−S: own itself when
// the base does not see S.
func (p *PostProcessed) flipScores(test *dataset.Dataset, own []float64) []float64 {
	if !p.IncludeS {
		return own
	}
	return p.base.proba(test, true)
}

// threshold labels base probability pr for group s by thresholding the
// adjusted probability at 0.5.
func (p *PostProcessed) threshold(pr float64, s int) int {
	if p.Mechanism.AdjustedProba(pr, s) >= 0.5 {
		return 1
	}
	return 0
}
