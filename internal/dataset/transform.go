package dataset

import (
	"math"
	"sort"

	"fairbench/internal/matrix"
)

// Standardizer rescales numeric attributes to zero mean and unit variance.
// Categorical attributes are left untouched. The same fitted transform is
// applied to train and test data so the two stay comparable.
type Standardizer struct {
	mean, std []float64
	kinds     []AttrKind
}

// FitStandardizer computes per-attribute means and standard deviations.
func FitStandardizer(d *Dataset) *Standardizer {
	dim := d.Dim()
	s := &Standardizer{
		mean:  make([]float64, dim),
		std:   make([]float64, dim),
		kinds: make([]AttrKind, dim),
	}
	n := float64(d.Len())
	for j := 0; j < dim; j++ {
		s.kinds[j] = d.Attrs[j].Kind
		var sum float64
		for _, row := range d.X {
			sum += row[j]
		}
		m := sum / n
		var ss float64
		for _, row := range d.X {
			diff := row[j] - m
			ss += diff * diff
		}
		sd := math.Sqrt(ss / n)
		if sd < 1e-12 {
			sd = 1
		}
		s.mean[j], s.std[j] = m, sd
	}
	return s
}

// ApplyRow standardizes a single feature row (without S) in place.
func (s *Standardizer) ApplyRow(row []float64) {
	for j := range row {
		if j < len(s.kinds) && s.kinds[j] == Numeric {
			row[j] = (row[j] - s.mean[j]) / s.std[j]
		}
	}
}

// StandardizedDesign returns a standardizer fitted on d and d's design
// matrix standardized by it (sensitive column appended when includeS):
// Inputs over the data the standardizer was fitted on. d is not modified.
func (d *Dataset) StandardizedDesign(includeS bool) (*Standardizer, matrix.Dense) {
	std := FitStandardizer(d)
	return std, std.Inputs(d, includeS, false, nil)
}

// Inputs returns the classifier input of every tuple of d as one tightly
// packed matrix in StandardizedDesign's layout: the tuple's features
// standardized by s, then, when includeS, its sensitive value, or 1−S
// when flipS (the intervention the Individual Discrimination metric
// makes). When transform is non-nil, row i starts from
// transform(d.X[i], d.S[i]) instead of d.X[i]: a group-dependent test
// transform always sees the tuple's true group. Its rows must share one
// width, and it may reuse its result's storage between calls.
func (s *Standardizer) Inputs(d *Dataset, includeS, flipS bool, transform func(x []float64, s int) []float64) matrix.Dense {
	n := d.Len()
	if n == 0 {
		return matrix.Dense{}
	}
	row := func(i int) []float64 {
		if transform == nil {
			return d.X[i]
		}
		return transform(d.X[i], d.S[i])
	}
	first := row(0)
	width := len(first)
	cols := width
	if includeS {
		cols++
	}
	out := matrix.NewDense(n, cols)
	for i := range n {
		r := first
		if i > 0 {
			r = row(i)
		}
		o := out.Row(i)
		copy(o, r[:width])
		s.ApplyRow(o[:width])
		if includeS {
			si := d.S[i]
			if flipS {
				si = 1 - si
			}
			o[width] = float64(si)
		}
	}
	return *out
}

// Discretizer maps each attribute into a small number of integer bins so
// that causal stratification and the Calmon optimization can treat the
// joint distribution as a finite contingency table.
type Discretizer struct {
	// edges[j] holds the interior bin edges for numeric attribute j; a
	// value v falls in bin = #edges below v. Categorical attributes use
	// their code directly (capped at Bins-1).
	edges [][]float64
	kinds []AttrKind
	cards []int
	// Bins is the number of bins used for numeric attributes.
	Bins int
}

// FitDiscretizer computes equal-frequency bin edges (bins quantiles) for
// each numeric attribute of d.
func FitDiscretizer(d *Dataset, bins int) *Discretizer {
	if bins < 2 {
		bins = 2
	}
	dim := d.Dim()
	disc := &Discretizer{
		edges: make([][]float64, dim),
		kinds: make([]AttrKind, dim),
		cards: make([]int, dim),
		Bins:  bins,
	}
	for j := 0; j < dim; j++ {
		disc.kinds[j] = d.Attrs[j].Kind
		disc.cards[j] = d.Attrs[j].Card
		if d.Attrs[j].Kind != Numeric {
			continue
		}
		col := d.Column(j)
		sort.Float64s(col)
		edges := make([]float64, 0, bins-1)
		for b := 1; b < bins; b++ {
			q := float64(b) / float64(bins)
			pos := int(q * float64(len(col)-1))
			e := col[pos]
			if len(edges) == 0 || e > edges[len(edges)-1] {
				edges = append(edges, e)
			}
		}
		disc.edges[j] = edges
	}
	return disc
}

// Bin maps a raw value of attribute j into its bin index.
func (disc *Discretizer) Bin(j int, v float64) int {
	if disc.kinds[j] == Categorical {
		b := int(v)
		if b < 0 {
			b = 0
		}
		if disc.cards[j] > 0 && b >= disc.cards[j] {
			b = disc.cards[j] - 1
		}
		return b
	}
	edges := disc.edges[j]
	b := sort.SearchFloat64s(edges, v)
	// SearchFloat64s returns the insert position; values equal to an edge
	// belong to the lower bin, matching half-open intervals (lo, hi].
	for b > 0 && v <= edges[b-1] {
		b--
	}
	return b
}

// Cardinality returns the number of bins attribute j can take.
func (disc *Discretizer) Cardinality(j int) int {
	if disc.kinds[j] == Categorical {
		if disc.cards[j] > 0 {
			return disc.cards[j]
		}
		return disc.Bins
	}
	return len(disc.edges[j]) + 1
}

// Code maps a full feature row into a single stratum code over the given
// attribute subset, little-endian in the subset order. The second return
// value is the total number of strata.
func (disc *Discretizer) Code(row []float64, attrs []int) (code, total int) {
	total = 1
	for _, j := range attrs {
		card := disc.Cardinality(j)
		code += disc.Bin(j, row[j]) * total
		total *= card
	}
	return code, total
}
