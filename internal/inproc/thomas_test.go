package inproc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fairbench/internal/matrix"
)

// perRowViolationGrad is the barrier gradient Thomas's candidate search
// ran before addViolationGradFromP staged its coefficients, kept as its
// reference: each tuple's coefficient, its terms added to grad row by
// row, and zero coefficients skipped.
func perRowViolationGrad(t *Thomas, p []float64, x matrix.Dense, y, s []int, viols []float64, barrier float64, grad []float64) {
	d := len(grad) - 1
	var tot, tpN, tnN [2]float64
	for i := range x.Rows {
		tot[s[i]]++
		if y[i] == 1 {
			tpN[s[i]]++
		} else {
			tnN[s[i]]++
		}
	}
	for i := range x.Rows {
		pi := p[i]
		dp := pi * (1 - pi)
		g := s[i]
		sign := 1.0
		if g == 0 {
			sign = -1
		}
		var coef float64
		if t.Notion == ThomasDP {
			if tot[g] > 0 {
				coef = 2 * barrier * viols[0] * sign * dp / tot[g]
			}
		} else {
			if y[i] == 1 && tpN[g] > 0 {
				coef = 2 * barrier * viols[0] * sign * dp / tpN[g]
			} else if y[i] == 0 && tnN[g] > 0 {
				coef = -2 * barrier * viols[1] * sign * dp / tnN[g]
			}
		}
		if coef == 0 {
			continue
		}
		matrix.AccumulateInto(grad[:d], coef, x.Row(i))
		grad[d] += coef
	}
}

// TestViolationGradMatchesPerRow holds the staged barrier gradient to the
// per-row loop bit for bit, for both notions on every dataset's training
// split, added (as the candidate objective adds it) to the log-loss
// gradient of a cleared grad. The probabilities include exact 0s and 1s,
// and the violations are also set to zero, so many coefficients are the
// zeros the per-row loop skipped and the scatter adds.
func TestViolationGradMatchesPerRow(t *testing.T) {
	g := rand.New(rand.NewSource(9))
	for _, src := range sources {
		train := trainingSplit(src.gen, 1000, 2)
		b := linearBase{}
		x := b.designMatrix(train)
		view := newFitView(x, train.Y)
		counts := barrierCounts(train.Y, train.S)
		coef := make([]float64, x.Rows)
		w := make([]float64, x.Cols+1)
		for _, notion := range []ThomasNotion{ThomasDP, ThomasEO} {
			th := &Thomas{Notion: notion}
			for _, scale := range []float64{0.1, 1, 40} {
				for j := range w {
					w[j] = scale * g.NormFloat64()
				}
				view.fillZ(w)
				view.fillP()
				for i := 0; i < len(view.p); i += 7 {
					view.p[i] = float64(i / 7 % 2)
				}
				viols := th.violationsFromP(view.p, train.Y, train.S)
				for _, vs := range [][]float64{viols, make([]float64, len(viols))} {
					label := fmt.Sprintf("%s %s scale %v viols %v", src.name, th.Name(), scale, vs)
					got := make([]float64, x.Cols+1)
					view.logGradFromP(got)
					want := append([]float64(nil), got...)
					th.addViolationGradFromP(view.p, &view.dm, train.Y, train.S, counts, vs, 20, coef, got)
					perRowViolationGrad(th, view.p, x, train.Y, train.S, vs, 20, want)
					for j := range want {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("%s: grad[%d] = %x, per-row %x", label, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
						}
					}
				}
			}
		}
	}
}
