//go:build !amd64

package matrix

// Other architectures run the scalar kernels only; useVector is always
// false there, so the vector entry points are never called.

func hasAVX2FMA() bool { return false }

func affineColsAVX2(dst, cols, w []float64, bias float64) { panic("matrix: no vector kernels") }

func sqDistColsAVX2(dst, cols, q []float64) { panic("matrix: no vector kernels") }

func sigmoidAVX2(dst, src []float64) int { panic("matrix: no vector kernels") }

func scatterAVX2(dst, g, x []float64, stride int) { panic("matrix: no vector kernels") }

func tanhAVX2(dst, src []float64) { panic("matrix: no vector kernels") }

func logAVX2(dst, src []float64) int { panic("matrix: no vector kernels") }

func likelihoodAVX2(l, p, y []float64) { panic("matrix: no vector kernels") }

func residualScatterAVX2(dst, g, w, p, y, x []float64, n float64, stride int, div bool) {
	panic("matrix: no vector kernels")
}
