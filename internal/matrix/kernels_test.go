package matrix

import (
	"math/rand"
	"testing"
)

// affineRef is the scalar fold the classifiers historically ran: bias
// first, then ascending-j accumulation with one accumulator per row.
func affineRef(dst []float64, rows [][]float64, w []float64, bias float64) {
	for i, row := range rows {
		z := bias
		for j, v := range row {
			z += w[j] * v
		}
		dst[i] = z
	}
}

func TestAffineIntoBitIdentical(t *testing.T) {
	g := rand.New(rand.NewSource(7))
	for _, shape := range []struct{ r, c int }{
		{0, 3}, {1, 1}, {3, 5}, {4, 7}, {5, 2}, {17, 11}, {64, 23},
	} {
		d := NewDense(shape.r, shape.c)
		for i := range d.Data {
			d.Data[i] = g.NormFloat64()
		}
		w := make([]float64, shape.c)
		for i := range w {
			w[i] = g.NormFloat64()
		}
		bias := g.NormFloat64()
		got := make([]float64, shape.r)
		want := make([]float64, shape.r)
		d.AffineInto(got, w, bias)
		affineRef(want, d.RowsView(), w, bias)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shape %dx%d row %d: AffineInto %v != scalar fold %v (must be bit-identical)",
					shape.r, shape.c, i, got[i], want[i])
			}
		}
	}
}

// TestSqDistIntoMatchesNaiveLoop holds the scalar distance scan, strided
// rows included, to the plain per-row loop kNN queries have always run.
func TestSqDistIntoMatchesNaiveLoop(t *testing.T) {
	g := rand.New(rand.NewSource(11))
	backing := make([]float64, 9*5)
	for i := range backing {
		backing[i] = g.NormFloat64()
	}
	q := []float64{0.5, -1.25, 2}
	for _, d := range []*Dense{
		{Data: backing, Rows: 9, Cols: 3, Stride: 5},
		{Data: backing[:27], Rows: 9, Cols: 3, Stride: 3},
	} {
		got := make([]float64, d.Rows)
		d.SqDistInto(got, q)
		for i := range got {
			var want float64
			for j, v := range d.Row(i) {
				e := v - q[j]
				want += e * e
			}
			if got[i] != want {
				t.Fatalf("stride %d row %d: %v != %v", d.Stride, i, got[i], want)
			}
		}
	}
}

func TestAffineIntoStridedFallback(t *testing.T) {
	// A non-tight stride must fall back to the per-row path and still match.
	backing := make([]float64, 3*5)
	g := rand.New(rand.NewSource(9))
	for i := range backing {
		backing[i] = g.NormFloat64()
	}
	d := &Dense{Data: backing, Rows: 3, Cols: 3, Stride: 5}
	w := []float64{0.5, -1.25, 2.0}
	got := make([]float64, 3)
	want := make([]float64, 3)
	d.AffineInto(got, w, 0.75)
	affineRef(want, [][]float64{d.Row(0), d.Row(1), d.Row(2)}, w, 0.75)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("strided row %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestAccumulateInto(t *testing.T) {
	dst := []float64{1, 2, 3, 100} // intercept slot at the end stays untouched
	AccumulateInto(dst, 2, []float64{10, 20, 30})
	want := []float64{21, 42, 63, 100}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestDotAxpyMismatchStillPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic on length mismatch", name)
			}
		}()
		f()
	}
	mustPanic("Dot", func() { Dot([]float64{1}, []float64{1, 2}) })
	mustPanic("Axpy", func() { Axpy(1, []float64{1}, []float64{1, 2}) })
	mustPanic("AffineInto", func() { NewDense(2, 2).AffineInto(make([]float64, 2), []float64{1}, 0) })
	mustPanic("Design.AffineInto", func() {
		des := NewDesign(*NewDense(8, 2))
		des.AffineInto(make([]float64, 8), []float64{1}, 0)
	})
}
