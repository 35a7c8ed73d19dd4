//go:build !amd64

package matrix

// Other architectures run the scalar kernels only; useVector is always
// false there, so the vector entry points are never called.

func hasAVX2FMA() bool { return false }

func affineColsAVX2(dst, cols, w []float64, bias float64) { panic("matrix: no vector kernels") }

func sqDistColsAVX2(dst, cols, q []float64) { panic("matrix: no vector kernels") }

func sigmoidAVX2(dst, src []float64) int { panic("matrix: no vector kernels") }

func scatterAVX2(dst, g, x []float64) { panic("matrix: no vector kernels") }

func tanhAVX2(dst, src []float64) { panic("matrix: no vector kernels") }

func logAVX2(dst, src []float64) int { panic("matrix: no vector kernels") }
