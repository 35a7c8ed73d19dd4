package inproc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fairbench/internal/fair"
	"fairbench/internal/matrix"
	"fairbench/internal/metrics"
	"fairbench/internal/optimize"
)

func TestAgarwalDPImprovesDI(t *testing.T) {
	train, test := trainTest(t, 3000)
	base := baselineDI(t, train, test)
	a := NewAgarwalDP()
	yhat := fitPredict(t, a, train, test)
	di := metrics.DIStar(metrics.DisparateImpact(test, yhat))
	if di < base {
		t.Fatalf("Agarwal-DP DI* %v not above baseline %v", di, base)
	}
	if id := metrics.IndividualDiscrimination(a.PredictFlipped(test, yhat)); id != 0 {
		t.Fatalf("Agarwal drops S, ID must be 0: %v", id)
	}
}

func TestAgarwalEOImprovesOdds(t *testing.T) {
	train, test := trainTest(t, 3000)
	b := fair.NewBaseline()
	byhat := fitPredict(t, b, train, test)
	baseTPRB := math.Abs(metrics.TPRBalance(test, byhat))
	a := NewAgarwalEO()
	yhat := fitPredict(t, a, train, test)
	if got := math.Abs(metrics.TPRBalance(test, yhat)); got > baseTPRB+0.02 {
		t.Fatalf("Agarwal-EO TPRB %v vs baseline %v", got, baseTPRB)
	}
}

func TestAgarwalIdentity(t *testing.T) {
	dp, eo := NewAgarwalDP(), NewAgarwalEO()
	if dp.Name() != "Agarwal-DP" || eo.Name() != "Agarwal-EO" {
		t.Fatal("names")
	}
	if dp.Stage() != fair.StageIn {
		t.Fatal("stage")
	}
	if dp.Targets()[0] != fair.MetricDI {
		t.Fatal("dp target")
	}
	if len(eo.Targets()) != 2 {
		t.Fatal("eo targets")
	}
	_, test := trainTest(t, 200)
	if _, err := dp.Predict(test); err == nil {
		t.Fatal("predict before fit must error")
	}
}

// perRowWeightedLogitGrad is the per-row objective Agarwal's rounds ran
// before weightedLogitGrad, kept as its reference: each row's score folds
// the bias first, then its gradient terms and weight add into the sums in
// ascending row order.
func perRowWeightedLogitGrad(x matrix.Dense, y []int, weights []float64) optimize.Objective {
	return func(wv, grad []float64) float64 {
		for j := range grad {
			grad[j] = 0
		}
		var tw float64
		d := len(wv) - 1
		for i := range x.Rows {
			row := x.Row(i)
			z := wv[d]
			for j, v := range row {
				z += wv[j] * v
			}
			p := matrix.Sigmoid(z)
			yi := float64(y[i])
			gval := weights[i] * (p - yi)
			for j, v := range row {
				grad[j] += gval * v
			}
			grad[d] += gval
			tw += weights[i]
		}
		if tw > 0 {
			for j := range grad {
				grad[j] /= tw
			}
		}
		return 0
	}
}

// TestWeightedLogitGradMatchesPerRow holds the shared weighted learner to
// the per-row objective bit for bit, on every dataset's training split at
// n=1000 and seeds 1–3, with S as a feature (Kearns) and without it
// (Agarwal): under unit weights, weights drawn across Agarwal's [1/8, 8]
// clamp (its ends included), one tuple weighted 1/8 and the rest 0 (a
// total below 1), and all-zero weights, at the origin and at random
// iterates of growing scale.
func TestWeightedLogitGradMatchesPerRow(t *testing.T) {
	g := rand.New(rand.NewSource(5))
	for _, src := range sources {
		for seed := int64(1); seed <= 3; seed++ {
			train := trainingSplit(src.gen, 1000, seed)
			for _, includeS := range []bool{false, true} {
				b := linearBase{includeS: includeS}
				x := b.designMatrix(train)
				view := newFitView(x, train.Y)
				n := x.Rows
				unit, clamped, single, zero := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
				single[n/2] = 1.0 / 8
				for i := range n {
					unit[i] = 1
					switch i % 5 {
					case 0:
						clamped[i] = 1.0 / 8
					case 1:
						clamped[i] = 8
					default:
						clamped[i] = math.Exp(math.Log(8) * (2*g.Float64() - 1))
					}
				}
				for _, wt := range []struct {
					name string
					w    []float64
				}{{"unit", unit}, {"clamped", clamped}, {"single", single}, {"zero", zero}} {
					got, want := view.weightedLogitGrad(wt.w), perRowWeightedLogitGrad(x, train.Y, wt.w)
					gg, wg := make([]float64, x.Cols+1), make([]float64, x.Cols+1)
					w := make([]float64, x.Cols+1)
					for _, scale := range []float64{0, 0.1, 1, 10} {
						for j := range w {
							w[j] = scale * g.NormFloat64()
						}
						label := fmt.Sprintf("%s seed %d includeS=%v, %s weights, scale %v", src.name, seed, includeS, wt.name, scale)
						if a, b := got(w, gg), want(w, wg); a != b {
							t.Fatalf("%s: value %v, per-row %v", label, a, b)
						}
						for j := range wg {
							if math.Float64bits(gg[j]) != math.Float64bits(wg[j]) {
								t.Fatalf("%s: grad[%d] = %v, per-row %v", label, j, gg[j], wg[j])
							}
						}
					}
				}
			}
		}
	}
}
