package optimize

import (
	"math"
	"testing"
	"testing/quick"
)

// quadratic (w-3)^2 + (w2+1)^2 with gradient.
func quad(w, grad []float64) float64 {
	grad[0] = 2 * (w[0] - 3)
	grad[1] = 2 * (w[1] + 1)
	return (w[0]-3)*(w[0]-3) + (w[1]+1)*(w[1]+1)
}

func TestGradientDescentQuadratic(t *testing.T) {
	w, val := GradientDescent(quad, []float64{0, 0}, GDConfig{})
	if math.Abs(w[0]-3) > 1e-3 || math.Abs(w[1]+1) > 1e-3 {
		t.Fatalf("GD solution: %v (val %v)", w, val)
	}
}

func TestAdamQuadratic(t *testing.T) {
	w, _ := Adam(quad, []float64{10, -10}, AdamConfig{MaxIter: 3000, Step: 0.1})
	if math.Abs(w[0]-3) > 1e-2 || math.Abs(w[1]+1) > 1e-2 {
		t.Fatalf("Adam solution: %v", w)
	}
}

func TestProjectedGDStaysInBox(t *testing.T) {
	// Minimize (w-3)^2 constrained to [0,1]: optimum at the boundary 1.
	obj := func(w, grad []float64) float64 {
		grad[0] = 2 * (w[0] - 3)
		return (w[0] - 3) * (w[0] - 3)
	}
	w, _ := GradientDescent(obj, []float64{0.5}, GDConfig{
		Project: func(w []float64) {
			for i := range w {
				w[i] = math.Min(math.Max(w[i], 0), 1)
			}
		},
	})
	if math.Abs(w[0]-1) > 1e-6 {
		t.Fatalf("projected optimum: %v", w[0])
	}
}

func TestMinimizePenalty(t *testing.T) {
	// Minimize (w-3)^2 s.t. w <= 1: optimum at w = 1.
	obj := func(w, grad []float64) float64 {
		grad[0] = 2 * (w[0] - 3)
		return (w[0] - 3) * (w[0] - 3)
	}
	con := func(w, grad []float64) float64 {
		grad[0] = 1
		return w[0] - 1
	}
	w := MinimizePenalty(obj, []Constraint{con}, []float64{0}, PenaltyConfig{})
	if math.Abs(w[0]-1) > 0.05 {
		t.Fatalf("penalty optimum: %v", w[0])
	}
}

func TestProjectSimplexProperties(t *testing.T) {
	f := func(raw [6]float64) bool {
		w := make([]float64, 6)
		for i, v := range raw {
			w[i] = math.Mod(v, 100)
			if math.IsNaN(w[i]) {
				return true
			}
		}
		ProjectSimplex(w)
		var sum float64
		for _, v := range w {
			if v < -1e-9 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProjectSimplexIdempotent(t *testing.T) {
	w := []float64{0.2, 0.3, 0.5}
	ProjectSimplex(w)
	if math.Abs(w[0]-0.2) > 1e-9 || math.Abs(w[2]-0.5) > 1e-9 {
		t.Fatalf("simplex point must be fixed: %v", w)
	}
}

func TestProjectSimplexKnown(t *testing.T) {
	w := []float64{2, 0}
	ProjectSimplex(w)
	if math.Abs(w[0]-1) > 1e-9 || math.Abs(w[1]) > 1e-9 {
		t.Fatalf("projection of (2,0): %v", w)
	}
}

func TestBisect(t *testing.T) {
	root := Bisect(func(x float64) float64 { return x*x*x - 8 }, 0, 10, 60)
	if math.Abs(root-2) > 1e-9 {
		t.Fatalf("bisect root: %v", root)
	}
}

func TestGoldenSection(t *testing.T) {
	min := GoldenSection(func(x float64) float64 { return (x - 1.5) * (x - 1.5) }, 0, 10, 80)
	if math.Abs(min-1.5) > 1e-6 {
		t.Fatalf("golden-section minimum: %v", min)
	}
}
