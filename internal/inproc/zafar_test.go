package inproc

import (
	"math"
	"math/rand"
	"testing"

	"fairbench/internal/matrix"
	"fairbench/internal/optimize"
)

// clampedLikelihood is the probability the model gives label y, with p
// clamped to [1e-12, 1-1e-12] first so its log stays finite.
func clampedLikelihood(p, y float64) float64 {
	const eps = 1e-12
	p = matrix.Clamp(p, eps, 1-eps)
	if y >= 0.5 {
		return p
	}
	return 1 - p
}

// logLoss is one tuple's logistic loss, -log of clampedLikelihood.
func logLoss(p, y float64) float64 {
	return -math.Log(clampedLikelihood(p, y))
}

// perTupleLogLoss is the loss fold logLossGradFromZ's staged pass
// replaced, kept as its reference: logLoss of each tuple's sigmoid score,
// summed in ascending tuple order, over n.
func perTupleLogLoss(z []float64, y []int) float64 {
	var loss float64
	for i, zi := range z {
		loss += logLoss(matrix.Sigmoid(zi), float64(y[i]))
	}
	return loss / float64(len(z))
}

// TestZafarLossMatchesPerTupleFold holds the staged loss pass to the
// per-tuple fold bit for bit: along Zafar-DP-Acc's unconstrained Adam
// phase on every dataset, and at random iterates large enough to
// saturate p at both ends of the clamp. After its first call the pass
// allocates nothing.
func TestZafarLossMatchesPerTupleFold(t *testing.T) {
	g := rand.New(rand.NewSource(3))
	for _, src := range sources {
		for seed := int64(1); seed <= 2; seed++ {
			train := trainingSplit(src.gen, 1000, seed)
			b := linearBase{}
			x := b.designMatrix(train)
			view := newFitView(x, train.Y)
			grad := make([]float64, x.Cols+1)
			check := func(w []float64) float64 {
				clear(grad)
				view.fillZ(w)
				got := view.logLossGradFromZ(grad)
				if want := perTupleLogLoss(view.z, train.Y); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s seed %d at %v: loss pass %v, per-tuple fold %v", src.name, seed, w, got, want)
				}
				return got
			}
			optimize.Adam(func(w, gr []float64) float64 {
				loss := check(w)
				copy(gr, grad)
				return loss
			}, make([]float64, len(grad)), optimize.AdamConfig{MaxIter: 100})
			w := make([]float64, len(grad))
			for _, scale := range []float64{0.1, 1, 10, 1000} {
				for j := range w {
					w[j] = scale * g.NormFloat64()
				}
				check(w)
			}
			if a := testing.AllocsPerRun(5, func() { view.logLossGradFromZ(grad) }); a != 0 {
				t.Fatalf("%s: loss pass allocates %v times per call after the first", src.name, a)
			}
		}
	}
}
