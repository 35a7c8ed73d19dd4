// Package matrix provides small dense linear-algebra primitives used by the
// classifiers and optimizers. It is deliberately minimal: fair-classification
// workloads in this repository only need vector arithmetic, matrix-vector
// products, and a handful of norms, all on row-major [][]float64 data.
package matrix

import (
	"fmt"
	"math"
)

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Sub returns a new vector a-b.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("matrix: Sub length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Clone returns a deep copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// MatVec computes m·x for a row-major matrix m.
func MatVec(m [][]float64, x []float64) []float64 {
	out := make([]float64, len(m))
	for i, row := range m {
		out[i] = Dot(row, x)
	}
	return out
}

// TransposeMatVec computes mᵀ·x, i.e. the vector whose j-th entry is
// Σ_i m[i][j]·x[i]. Used for gradient accumulation.
func TransposeMatVec(m [][]float64, x []float64) []float64 {
	if len(m) == 0 {
		return nil
	}
	if len(m) != len(x) {
		panic(fmt.Sprintf("matrix: TransposeMatVec length mismatch %d vs %d", len(m), len(x)))
	}
	out := make([]float64, len(m[0]))
	for i, row := range m {
		Axpy(x[i], row, out)
	}
	return out
}

// NormInf returns the maximum absolute entry of x.
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of the entries of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Sigmoid returns 1/(1+exp(-z)) computed in a numerically stable way.
func Sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Clamp restricts v to the interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ArgMax returns the index of the largest entry of x (-1 for empty input).
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i, v := range x {
		if v > x[best] {
			best = i
		}
	}
	return best
}
