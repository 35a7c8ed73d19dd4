// Package dataset implements the annotated-dataset abstraction of the paper
// (Section 2, Figure 1): a relation with schema (X, S; Y) where X is a set
// of descriptive attributes, S a binary sensitive attribute (1 = privileged,
// 0 = unprivileged), and Y a binary ground-truth label (1 = favorable).
//
// The package also provides the data-management plumbing every fair
// approach needs: train/test splitting, k-fold cross validation, weighted
// resampling, and per-attribute standardization and discretization.
//
// # Flat layout and the view contract
//
// Datasets built by NewFlat (all package generators and Clone use it) keep
// X in one flat row-major backing array; each X[i] is a stride-spaced
// subslice of it, so scanning rows walks memory sequentially and cloning
// is a single copy. Slicing operations — Subset, Split, KFold, Sample,
// ResampleWeighted — are zero-copy: the returned dataset's rows ALIAS the
// parent's row storage (S, Y, and Weights are small and copied). The
// contract every consumer in this repository follows: derived datasets are
// read-only views; code that needs to mutate tuples takes a Clone first
// (every repairer and corruption template does). This is what lets one
// synthesized dataset back an entire experiment grid across worker
// goroutines without a byte of row copying.
//
// Classifiers never read X's rows: every fit and every block score takes
// a design as one tightly packed matrix.Dense, which FeatureMatrix,
// StandardizedDesign and Standardizer.Inputs build fresh from the rows.
package dataset

import (
	"fmt"
	"sync/atomic"

	"fairbench/internal/matrix"
	"fairbench/internal/rng"
)

// AttrKind distinguishes numeric attributes (repaired by quantile
// alignment, discretized by equal-width binning) from categorical ones
// (small integer codes; stratified directly).
type AttrKind int

const (
	// Numeric marks a continuous or ordinal attribute.
	Numeric AttrKind = iota
	// Categorical marks a finite-domain attribute coded as 0..Card-1.
	Categorical
)

// Attr describes one attribute of X.
type Attr struct {
	Name string
	Kind AttrKind
	// Card is the domain size for Categorical attributes; ignored for
	// Numeric ones.
	Card int
}

// Dataset is an annotated dataset D with schema (X, S; Y). Rows of X are
// feature vectors; S and Y are parallel slices. Weights, when non-nil,
// carry per-tuple importance weights (used by reweighing pre-processors and
// cost-sensitive in-processing); nil means uniform weight 1.
//
// Rows of a dataset produced by a slicing operation (Subset and friends)
// alias their parent's storage — see the package comment for the view
// contract. Mutate via Clone.
type Dataset struct {
	Name    string
	Attrs   []Attr
	X       [][]float64
	S       []int
	Y       []int
	Weights []float64
	// SName and YName label the sensitive attribute and target task for
	// reporting (e.g. "Sex" and "Income>=50K" for Adult).
	SName, YName string

	// batch, when armed via EnableBatchCache, is the arm-once memo a model
	// sweep's cells use to share artifacts derived deterministically from
	// this view (see BatchCache). Derived datasets (Clone, Subset, …)
	// start without one: their rows are different data, so sharing would
	// be wrong by construction.
	batch atomic.Pointer[BatchCache]
}

// NewFlat returns a dataset with n zeroed tuples whose rows live in one
// flat backing array: X[i] is a view into it. Generators fill rows in
// place via X[i] (or Row).
func NewFlat(name string, attrs []Attr, n int) *Dataset {
	return &Dataset{
		Name:  name,
		Attrs: attrs,
		X:     matrix.NewDense(n, len(attrs)).RowsView(),
		S:     make([]int, n),
		Y:     make([]int, n),
	}
}

// Len returns the number of tuples |D|.
func (d *Dataset) Len() int { return len(d.X) }

// Dim returns the number of attributes |X| (excluding S and Y).
func (d *Dataset) Dim() int { return len(d.Attrs) }

// Validate checks internal consistency and value domains. It returns an
// error describing the first violation found.
func (d *Dataset) Validate() error {
	n := len(d.X)
	if len(d.S) != n || len(d.Y) != n {
		return fmt.Errorf("dataset %s: X/S/Y length mismatch %d/%d/%d", d.Name, n, len(d.S), len(d.Y))
	}
	if d.Weights != nil && len(d.Weights) != n {
		return fmt.Errorf("dataset %s: weight length %d != %d", d.Name, len(d.Weights), n)
	}
	for i, row := range d.X {
		if len(row) != len(d.Attrs) {
			return fmt.Errorf("dataset %s: row %d has %d attrs, want %d", d.Name, i, len(row), len(d.Attrs))
		}
		if d.S[i] != 0 && d.S[i] != 1 {
			return fmt.Errorf("dataset %s: row %d has non-binary S=%d", d.Name, i, d.S[i])
		}
		if d.Y[i] != 0 && d.Y[i] != 1 {
			return fmt.Errorf("dataset %s: row %d has non-binary Y=%d", d.Name, i, d.Y[i])
		}
	}
	return nil
}

// Clone returns a deep copy of the dataset with a freshly allocated,
// contiguous flat backing — the one operation that severs every alias to
// the parent, and therefore the required first step before mutating any
// derived dataset.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{
		Name:  d.Name,
		Attrs: append([]Attr(nil), d.Attrs...),
		S:     append([]int(nil), d.S...),
		Y:     append([]int(nil), d.Y...),
		SName: d.SName,
		YName: d.YName,
	}
	out.X = matrix.NewDense(len(d.X), len(d.Attrs)).RowsView()
	for i, row := range d.X {
		copy(out.X[i], row)
	}
	if d.Weights != nil {
		out.Weights = append([]float64(nil), d.Weights...)
	}
	return out
}

// Weight returns the weight of tuple i (1 when Weights is nil).
func (d *Dataset) Weight(i int) float64 {
	if d.Weights == nil {
		return 1
	}
	return d.Weights[i]
}

// TotalWeight returns the sum of tuple weights (Len() when unweighted).
func (d *Dataset) TotalWeight() float64 {
	if d.Weights == nil {
		return float64(d.Len())
	}
	var s float64
	for _, w := range d.Weights {
		s += w
	}
	return s
}

// Subset returns a dataset containing the tuples at the given indices as a
// zero-copy view: the rows of the result alias this dataset's row storage
// (S, Y, and Weights are copied — they are one word per tuple). Callers
// that mutate tuples must Clone the subset first; see the package comment.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{
		Name:  d.Name,
		Attrs: append([]Attr(nil), d.Attrs...),
		X:     make([][]float64, len(idx)),
		S:     make([]int, len(idx)),
		Y:     make([]int, len(idx)),
		SName: d.SName,
		YName: d.YName,
	}
	if d.Weights != nil {
		out.Weights = make([]float64, len(idx))
	}
	for j, i := range idx {
		out.X[j] = d.X[i]
		out.S[j] = d.S[i]
		out.Y[j] = d.Y[i]
		if d.Weights != nil {
			out.Weights[j] = d.Weights[i]
		}
	}
	return out
}

// Split partitions the dataset into train and test views with the given
// train fraction, shuffling with g. The paper uses a random 70%-30% split.
func (d *Dataset) Split(trainFrac float64, g *rng.RNG) (train, test *Dataset) {
	n := d.Len()
	perm := g.Perm(n)
	cut := int(trainFrac * float64(n))
	if cut < 1 {
		cut = 1
	}
	if cut >= n {
		cut = n - 1
	}
	return d.Subset(perm[:cut]), d.Subset(perm[cut:])
}

// KFold returns k (train, test) view pairs for k-fold cross validation
// with a shuffled assignment. Used for the 5-fold CV tables (Figures
// 16-18).
func (d *Dataset) KFold(k int, g *rng.RNG) []struct{ Train, Test *Dataset } {
	n := d.Len()
	perm := g.Perm(n)
	folds := make([]struct{ Train, Test *Dataset }, k)
	for f := 0; f < k; f++ {
		lo := f * n / k
		hi := (f + 1) * n / k
		testIdx := perm[lo:hi]
		trainIdx := make([]int, 0, n-(hi-lo))
		trainIdx = append(trainIdx, perm[:lo]...)
		trainIdx = append(trainIdx, perm[hi:]...)
		folds[f].Train = d.Subset(trainIdx)
		folds[f].Test = d.Subset(testIdx)
	}
	return folds
}

// Sample draws a uniform random subset view of size n without
// replacement; n >= Len returns an identity view (whole dataset, original
// order, no RNG consumed — matching the draw-nothing semantics the full
// sample always had).
func (d *Dataset) Sample(n int, g *rng.RNG) *Dataset {
	if n >= d.Len() {
		idx := make([]int, d.Len())
		for i := range idx {
			idx[i] = i
		}
		return d.Subset(idx)
	}
	return d.Subset(g.SampleWithoutReplacement(d.Len(), n))
}

// ResampleWeighted draws n tuples with replacement with probability
// proportional to w (the Kam-Cal resampling step), as a view.
func (d *Dataset) ResampleWeighted(w []float64, n int, g *rng.RNG) *Dataset {
	return d.Subset(g.SampleWeighted(w, n))
}

// ProjectAttrs returns a dataset keeping only the attributes at the given
// column indices (used by the attribute-scalability experiment, Fig 8 d-f).
// Projection reorders columns, so the result is materialized into its own
// flat backing rather than aliased.
func (d *Dataset) ProjectAttrs(cols []int) *Dataset {
	out := &Dataset{
		Name:  d.Name,
		Attrs: make([]Attr, len(cols)),
		S:     append([]int(nil), d.S...),
		Y:     append([]int(nil), d.Y...),
		SName: d.SName,
		YName: d.YName,
	}
	for j, c := range cols {
		out.Attrs[j] = d.Attrs[c]
	}
	out.X = matrix.NewDense(d.Len(), len(cols)).RowsView()
	for i, row := range d.X {
		nr := out.X[i]
		for j, c := range cols {
			nr[j] = row[c]
		}
	}
	if d.Weights != nil {
		out.Weights = append([]float64(nil), d.Weights...)
	}
	return out
}

// Column returns a copy of attribute column j.
func (d *Dataset) Column(j int) []float64 {
	col := make([]float64, d.Len())
	for i, row := range d.X {
		col[i] = row[j]
	}
	return col
}

// GroupIndices returns the tuple indices of the unprivileged (S=0) and
// privileged (S=1) groups.
func (d *Dataset) GroupIndices() (unpriv, priv []int) {
	for i, s := range d.S {
		if s == 1 {
			priv = append(priv, i)
		} else {
			unpriv = append(unpriv, i)
		}
	}
	return unpriv, priv
}

// BaseRates returns P(Y=1|S=0) and P(Y=1|S=1) over the dataset, weighted.
func (d *Dataset) BaseRates() (unpriv, priv float64) {
	var n0, n1, p0, p1 float64
	for i := range d.Y {
		w := d.Weight(i)
		if d.S[i] == 1 {
			n1 += w
			if d.Y[i] == 1 {
				p1 += w
			}
		} else {
			n0 += w
			if d.Y[i] == 1 {
				p0 += w
			}
		}
	}
	if n0 > 0 {
		unpriv = p0 / n0
	}
	if n1 > 0 {
		priv = p1 / n1
	}
	return unpriv, priv
}

// FeatureMatrix returns the design matrix used by the classifiers: row i
// is X_i with S appended as the final column when includeS is true. It is
// a fresh, tightly packed matrix (one allocation), so training kernels
// stream it sequentially and writing it never reaches d.
func (d *Dataset) FeatureMatrix(includeS bool) matrix.Dense {
	cols := len(d.Attrs)
	if includeS {
		cols++
	}
	m := matrix.NewDense(d.Len(), cols)
	for i, row := range d.X {
		o := m.Row(i)
		copy(o, row)
		if includeS {
			o[len(row)] = float64(d.S[i])
		}
	}
	return *m
}
