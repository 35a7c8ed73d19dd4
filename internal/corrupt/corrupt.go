// Package corrupt injects the training-data quality issues of the paper's
// robustness experiment (Section 4.4). Three error templates over COMPAS
// are reproduced:
//
//	T1: swapped values between Prior_convictions and Age;
//	T2: scaled values of Prior_convictions and noisy values of Age;
//	T3: missing values of Race (the sensitive attribute) and the label,
//	    imputed with standard imputers (mode for categoricals/labels,
//	    mean for numerics).
//
// All errors are injected randomly and disproportionately: 50% of the
// unprivileged group and 10% of the privileged group are affected,
// mirroring the documented correlation between data-quality issues and
// sensitive attributes.
//
// Beyond the paper's fixed templates, bias.go adds the parameterized
// bias-injection models (under-representation and label bias) that the
// experiment grids expose as a first-class scenario dimension.
package corrupt

import (
	"fmt"

	"fairbench/internal/dataset"
	"fairbench/internal/rng"
)

// Rates holds per-group corruption probabilities. The paper's setting is
// {Unprivileged: 0.5, Privileged: 0.1}.
type Rates struct {
	Unprivileged, Privileged float64
}

// PaperRates is the 50%/10% disproportionate corruption of Section 4.4.
var PaperRates = Rates{Unprivileged: 0.5, Privileged: 0.1}

// The sensitive-attribute coding convention every injector in this
// package maps group-conditional behavior through. dataset.Validate
// enforces the same convention, but corruption also runs on hand-built
// datasets that never pass through Validate, so the mapping re-checks
// it instead of silently treating every unexpected code as unprivileged.
const (
	// UnprivilegedCode is the sensitive-attribute code of the
	// unprivileged group (S = 0 throughout the paper's datasets).
	UnprivilegedCode = 0
	// PrivilegedCode is the sensitive-attribute code of the privileged
	// group (S = 1).
	PrivilegedCode = 1
)

// GroupProb maps a sensitive-attribute code to the per-group probability
// it selects: p0 for the unprivileged code, p1 for the privileged one.
// A code outside the {0,1} convention is an error — the one centralized
// check every injector (templates and bias generators alike) routes
// group-conditional decisions through.
func GroupProb(s int, p0, p1 float64) (float64, error) {
	switch s {
	case UnprivilegedCode:
		return p0, nil
	case PrivilegedCode:
		return p1, nil
	}
	return 0, fmt.Errorf("corrupt: sensitive code %d outside the {0,1} convention (0 = unprivileged, 1 = privileged)", s)
}

// hit draws one per-tuple corruption decision. It always consumes exactly
// one uniform variate on success, so the injection pattern for a fixed
// seed is stable across refactors of the decision logic.
func (r Rates) hit(s int, g *rng.RNG) (bool, error) {
	p, err := GroupProb(s, r.Unprivileged, r.Privileged)
	if err != nil {
		return false, err
	}
	return g.Float64() < p, nil
}

// findAttr locates an attribute by name.
func findAttr(d *dataset.Dataset, name string) (int, error) {
	for j, a := range d.Attrs {
		if a.Name == name {
			return j, nil
		}
	}
	return -1, fmt.Errorf("corrupt: dataset %s has no attribute %q", d.Name, name)
}

// SwapValues returns a copy of d where, for affected tuples, the values of
// attributes a and b are exchanged (template T1).
func SwapValues(d *dataset.Dataset, a, b string, rates Rates, seed int64) (*dataset.Dataset, error) {
	ja, err := findAttr(d, a)
	if err != nil {
		return nil, err
	}
	jb, err := findAttr(d, b)
	if err != nil {
		return nil, err
	}
	g := rng.New(seed)
	out := d.Clone()
	out.Name = d.Name + "+T1"
	for i := range out.X {
		affected, err := rates.hit(out.S[i], g)
		if err != nil {
			return nil, err
		}
		if affected {
			out.X[i][ja], out.X[i][jb] = out.X[i][jb], out.X[i][ja]
		}
	}
	return out, nil
}

// ScaleAndNoise returns a copy of d where attribute scaleAttr is
// multiplied by factor and attribute noiseAttr receives additive Gaussian
// noise with the given standard deviation, for affected tuples (T2).
func ScaleAndNoise(d *dataset.Dataset, scaleAttr string, factor float64, noiseAttr string, noiseStd float64, rates Rates, seed int64) (*dataset.Dataset, error) {
	js, err := findAttr(d, scaleAttr)
	if err != nil {
		return nil, err
	}
	jn, err := findAttr(d, noiseAttr)
	if err != nil {
		return nil, err
	}
	g := rng.New(seed)
	out := d.Clone()
	out.Name = d.Name + "+T2"
	for i := range out.X {
		affected, err := rates.hit(out.S[i], g)
		if err != nil {
			return nil, err
		}
		if affected {
			out.X[i][js] *= factor
			out.X[i][jn] += g.Normal(0, noiseStd)
		}
	}
	return out, nil
}

// MissingImputed returns a copy of d where, for affected tuples, the
// sensitive attribute and the label are "lost" and then re-imputed with
// the standard imputers (mode over the observed values), reproducing T3's
// missing Race and Risk_of_recidivism columns.
func MissingImputed(d *dataset.Dataset, rates Rates, seed int64) (*dataset.Dataset, error) {
	g := rng.New(seed)
	out := d.Clone()
	out.Name = d.Name + "+T3"
	affected := make([]bool, out.Len())
	// Compute modes over the tuples that keep their values (the observed
	// part of the column, as an imputer would see it).
	var sCount, yCount [2]float64
	for i := range out.X {
		var err error
		if affected[i], err = rates.hit(out.S[i], g); err != nil {
			return nil, err
		}
		if !affected[i] {
			sCount[out.S[i]]++
			yCount[out.Y[i]]++
		}
	}
	sMode, yMode := 0, 0
	if sCount[1] >= sCount[0] {
		sMode = 1
	}
	if yCount[1] >= yCount[0] {
		yMode = 1
	}
	for i := range out.X {
		if affected[i] {
			out.S[i] = sMode
			out.Y[i] = yMode
		}
	}
	return out, nil
}

// Template identifies one of the paper's three COMPAS error templates.
type Template int

const (
	// T1 swaps Prior and Age values.
	T1 Template = iota + 1
	// T2 scales Prior and adds noise to Age.
	T2
	// T3 drops and imputes Race and the label.
	T3
)

// String returns the template's paper name.
func (t Template) String() string { return fmt.Sprintf("T%d", int(t)) }

// ApplyCOMPAS applies a template to a COMPAS-schema dataset with the
// paper's disproportionate rates.
func ApplyCOMPAS(d *dataset.Dataset, t Template, seed int64) (*dataset.Dataset, error) {
	switch t {
	case T1:
		return SwapValues(d, "Prior", "Age", PaperRates, seed)
	case T2:
		return ScaleAndNoise(d, "Prior", 3.0, "Age", 8.0, PaperRates, seed)
	case T3:
		return MissingImputed(d, PaperRates, seed)
	default:
		return nil, fmt.Errorf("corrupt: unknown template %d", int(t))
	}
}
