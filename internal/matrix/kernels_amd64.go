package matrix

// Implemented in kernels_amd64.s; kernels.go documents the contract.

func hasAVX2FMA() bool

//go:noescape
func affineColsAVX2(dst, cols, w []float64, bias float64)

//go:noescape
func sqDistColsAVX2(dst, cols, q []float64)

//go:noescape
func sigmoidAVX2(dst, src []float64) int

//go:noescape
func scatterAVX2(dst, g, x []float64, stride int)

//go:noescape
func tanhAVX2(dst, src []float64)

//go:noescape
func logAVX2(dst, src []float64) int

//go:noescape
func likelihoodAVX2(l, p, y []float64)

//go:noescape
func residualScatterAVX2(dst, g, w, p, y, x []float64, n float64, stride int, div bool)
