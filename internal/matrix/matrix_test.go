package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v want %v (tol %v)", msg, got, want, tol)
	}
}

func TestDot(t *testing.T) {
	almost(t, Dot([]float64{1, 2, 3}, []float64{4, 5, 6}), 32, 1e-12, "dot")
	almost(t, Dot(nil, nil), 0, 0, "empty dot")
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestDotSymmetry(t *testing.T) {
	f := func(a, b [8]float64) bool {
		// Bound the magnitude so intermediate products cannot overflow to
		// ±Inf and cancel into NaN, which would defeat the comparison.
		for i := range a {
			a[i] = math.Mod(a[i], 1e6)
			b[i] = math.Mod(b[i], 1e6)
			if math.IsNaN(a[i]) || math.IsNaN(b[i]) {
				return true
			}
		}
		return Dot(a[:], b[:]) == Dot(b[:], a[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAxpyScale(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	almost(t, y[0], 7, 1e-12, "axpy[0]")
	almost(t, y[1], 9, 1e-12, "axpy[1]")
	Scale(0.5, y)
	almost(t, y[0], 3.5, 1e-12, "scale[0]")
}

func TestMatVec(t *testing.T) {
	m := [][]float64{{1, 2}, {3, 4}}
	v := MatVec(m, []float64{1, 1})
	almost(t, v[0], 3, 1e-12, "mv0")
	almost(t, v[1], 7, 1e-12, "mv1")
	tv := TransposeMatVec(m, []float64{1, 1})
	almost(t, tv[0], 4, 1e-12, "tmv0")
	almost(t, tv[1], 6, 1e-12, "tmv1")
}

func TestNorms(t *testing.T) {
	almost(t, NormInf([]float64{-7, 4}), 7, 1e-12, "norminf")
	almost(t, Sum([]float64{1, 2, 3}), 6, 1e-12, "sum")
}

func TestSigmoid(t *testing.T) {
	almost(t, Sigmoid(0), 0.5, 1e-12, "sig(0)")
	almost(t, Sigmoid(100), 1, 1e-9, "sig(large)")
	almost(t, Sigmoid(-100), 0, 1e-9, "sig(-large)")
	// Symmetry property: sigmoid(-z) = 1 - sigmoid(z).
	f := func(z float64) bool {
		if math.IsNaN(z) || math.IsInf(z, 0) {
			return true
		}
		return math.Abs(Sigmoid(-z)-(1-Sigmoid(z))) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClamp(t *testing.T) {
	almost(t, Clamp(5, 0, 1), 1, 0, "hi")
	almost(t, Clamp(-5, 0, 1), 0, 0, "lo")
	almost(t, Clamp(0.5, 0, 1), 0.5, 0, "mid")
}

func TestArgMax(t *testing.T) {
	if got := ArgMax([]float64{1, 5, 3}); got != 1 {
		t.Fatalf("argmax: got %d", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Fatalf("argmax empty: got %d", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := []float64{1, 2}
	b := Clone(a)
	b[0] = 9
	if a[0] != 1 {
		t.Fatal("Clone aliases input")
	}
}

func TestSub(t *testing.T) {
	d := Sub([]float64{5, 3}, []float64{2, 1})
	almost(t, d[0], 3, 0, "sub0")
	almost(t, d[1], 2, 0, "sub1")
}
