package optimize

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
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

// simplexPalette holds values rich in the cases a descending sort can
// order in more than one way: ties, +0 and −0, and NaN.
var simplexPalette = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 0.25, 0.1, 1.0 / 3, 2, -0.5,
	1e-300, -1e-300, 5e-324, math.NaN(),
}

// checkProjectFrom projects w from order both ways and requires
// ProjectSimplexFrom to return ProjectSimplex's bits and leave order a
// permutation of w's indices, sorted by descending value when w holds no
// NaN (a NaN row keeps the order it came with).
func checkProjectFrom(t *testing.T, w []float64, order []int32) {
	t.Helper()
	want := append([]float64(nil), w...)
	ProjectSimplex(want)
	got := append([]float64(nil), w...)
	ord := append([]int32(nil), order...)
	ProjectSimplexFrom(got, ord)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %v from order %v: entry %d is %v, ProjectSimplex gives %v", w, order, i, got[i], want[i])
		}
	}
	seen := make([]bool, len(w))
	for _, i := range ord {
		if i < 0 || int(i) >= len(w) || seen[i] {
			t.Fatalf("row %v: order %v is not a permutation", w, ord)
		}
		seen[i] = true
	}
	if slices.ContainsFunc(w, math.IsNaN) {
		if !slices.Equal(ord, order) {
			t.Fatalf("row %v with NaN: order moved from %v to %v", w, order, ord)
		}
		return
	}
	for k := 1; k < len(ord); k++ {
		if w[ord[k]] > w[ord[k-1]] {
			t.Fatalf("row %v: order %v is not descending", w, ord)
		}
	}
}

// TestProjectSimplexFromMatches holds the warm-started projection to
// ProjectSimplex over random rows of 1–26 entries drawn from
// simplexPalette and uniform floats, each from a random starting order,
// and along chains of small steps that reuse each projection's order
// the way Calmon's rows do.
func TestProjectSimplexFromMatches(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	draw := func() float64 {
		if r.Intn(2) == 0 {
			return simplexPalette[r.Intn(len(simplexPalette))]
		}
		return 4*r.Float64() - 2
	}
	for trial := 0; trial < 20000; trial++ {
		n := 1 + r.Intn(26)
		w := make([]float64, n)
		for i := range w {
			w[i] = draw()
		}
		order := make([]int32, n)
		for k, i := range r.Perm(n) {
			order[k] = int32(i)
		}
		checkProjectFrom(t, w, order)
	}
	for chain := 0; chain < 200; chain++ {
		n := 1 + r.Intn(26)
		w := make([]float64, n)
		order := make([]int32, n)
		for i := range w {
			w[i], order[i] = r.Float64(), int32(i)
		}
		for step := 0; step < 50; step++ {
			for i := range w {
				w[i] -= 0.05 * (r.Float64() - 0.5)
			}
			checkProjectFrom(t, w, order)
			ProjectSimplexFrom(w, order)
		}
	}
}

// FuzzProjectSimplexFrom: the first byte sizes a row of 1–26 entries;
// each entry takes a palette value or, for a byte past the palette, the
// raw bits of the next eight bytes; the bytes left shuffle the starting
// order.
func FuzzProjectSimplexFrom(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0})
	f.Add([]byte{5, 2, 2, 2, 13, 13, 9, 4})
	f.Add([]byte{25, 0, 1, 0, 1, 3, 3, 8, 8, 8, 1, 0, 255, 0, 0, 0, 0, 0, 0, 240, 127, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%26
		data = data[1:]
		w := make([]float64, n)
		for i := range w {
			if len(data) == 0 {
				break
			}
			b := int(data[0])
			data = data[1:]
			if b < len(simplexPalette) {
				w[i] = simplexPalette[b]
			} else if len(data) >= 8 {
				w[i] = math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
			}
		}
		order := make([]int32, n)
		for i := range order {
			order[i] = int32(i)
		}
		for i := n - 1; i > 0 && len(data) > 0; i-- {
			j := int(data[0]) % (i + 1)
			data = data[1:]
			order[i], order[j] = order[j], order[i]
		}
		checkProjectFrom(t, w, order)
	})
}

// TestBiasTableMatchesPow: every Adam bias correction, tabled or not,
// is the math.Pow value the step would compute, past the table's end
// too.
func TestBiasTableMatchesPow(t *testing.T) {
	for _, beta := range []float64{adamBeta1, adamBeta2} {
		for step := 1; step <= defaultAdamIters+50; step++ {
			want := 1 - math.Pow(beta, float64(step))
			if got := biasCorrection(beta, step); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("β %v step %d: correction %v, math.Pow gives %v", beta, step, got, want)
			}
		}
	}
}

// TestNormInfBelowMatchesMaxAbs holds the early-exit check to a full
// max-abs scan compared with <, over vectors of ±0, NaN, ±Inf and values
// around the tolerances, and tolerances down to 0, negative and NaN.
func TestNormInfBelowMatchesMaxAbs(t *testing.T) {
	maxAbs := func(g []float64) float64 {
		var m float64
		for _, v := range g {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
		return m
	}
	palette := []float64{0, math.Copysign(0, -1), 1e-8, -1e-8, 1e-7, -1e-7, 5e-7, 1e-6, -1e-6,
		2e-6, 1, -3, math.Inf(1), math.Inf(-1), math.NaN()}
	tols := []float64{1e-6, 1e-7, 2e-6, 1, 0, math.Copysign(0, -1), -1e-6, math.Inf(1), math.NaN()}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20000; trial++ {
		g := make([]float64, r.Intn(9))
		for i := range g {
			g[i] = palette[r.Intn(len(palette))]
		}
		for _, tol := range tols {
			if got, want := normInfBelow(g, tol), maxAbs(g) < tol; got != want {
				t.Fatalf("normInfBelow(%v, %v) = %v, max-abs scan says %v", g, tol, got, want)
			}
		}
	}
}
