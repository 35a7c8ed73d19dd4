package matrix

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// These tests pin the AVX2 kernels to the scalar ones bit for bit. They
// skip on CPUs without the vector path, where both sides would be the
// scalar loop.

func needVector(t testing.TB) {
	t.Helper()
	if !useVector {
		t.Skip("no AVX2+FMA vector path on this CPU")
	}
}

// sameFloat reports bit identity, treating any two NaNs as equal: NaN
// payloads are outside the kernels' contract (see kernels.go).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestVectorPathTaken fails when an AVX2+FMA machine runs the scalar
// kernels, so a benchmark cannot silently measure the scalar path.
func TestVectorPathTaken(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if useVector {
			t.Fatal("vector path selected off amd64")
		}
		t.Skip("vector path exists only on amd64")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read CPU flags: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") {
			flags = strings.Fields(line)
			break
		}
	}
	if !slices.Contains(flags, "avx2") || !slices.Contains(flags, "fma") {
		t.Skip("CPU lacks AVX2 or FMA")
	}
	if !useVector {
		t.Fatal("CPU has AVX2 and FMA but the kernels run the scalar path")
	}
	if des := NewDesign(*NewDense(8, 3)); des.cols == nil {
		t.Fatal("NewDesign built no column-major copy on the vector path")
	}
	// sqDistColsAVX2 writes every whole block of four rows, through both
	// its sixteen-row and its four-row loop, and leaves the row tail to
	// Design.SqDistInto's scalar loop.
	for _, r := range []int{7, 23} {
		d := NewDense(r, 2)
		for i := range d.Data {
			d.Data[i] = float64(i % 5)
		}
		q := []float64{1, -2}
		got := make([]float64, r)
		for i := range got {
			got[i] = -7
		}
		sqDistColsAVX2(got, NewDesign(*d).cols, q)
		for i := range got {
			want := -7.0
			if i < r&^3 {
				want = sqDistRow(d.Row(i), q)
			}
			if got[i] != want {
				t.Fatalf("sqDistColsAVX2 over %d rows wrote %v at row %d, want %v", r, got[i], i, want)
			}
		}
	}
	// tanhAVX2 writes every whole block of four, here one pair and one
	// single block, and leaves the tail to TanhInto's scalar loop.
	src := []float64{0.3, -1, 30, 0, 0.7, 2, -3, 0.625, -50, 1e-300, 0.1, -0.6, 5, 6, 7}
	dst := make([]float64, len(src))
	for i := range dst {
		dst[i] = -7
	}
	tanhAVX2(dst, src)
	for i, v := range src {
		want := math.Tanh(v)
		if i >= 12 {
			want = -7
		}
		if dst[i] != want {
			t.Fatalf("tanhAVX2 wrote %v at %d of %v, want %v", dst[i], i, src, want)
		}
	}
	// logAVX2 writes whole blocks of four and stops at the first block
	// with a lane it does not take, here the third (its 0). LogInto logs
	// that block with the scalar loop, the fourth with logAVX2 again and
	// the one-element tail with the scalar loop.
	src = []float64{0.3, 1, 7, 1e-5, 2, 3, 4, 5, 9, 0, 10, 11, 12, 13, 14, 15, 16}
	dst = make([]float64, len(src))
	for i := range dst {
		dst[i] = -7
	}
	if k := logAVX2(dst, src); k != 8 {
		t.Fatalf("logAVX2(%v) wrote %d elements, want 8", src, k)
	}
	for i, v := range src {
		want := math.Log(v)
		if i >= 8 {
			want = -7
		}
		if dst[i] != want {
			t.Fatalf("logAVX2 wrote %v at %d of %v, want %v", dst[i], i, src, want)
		}
	}
	LogInto(dst, src)
	for i, v := range src {
		if dst[i] != math.Log(v) {
			t.Fatalf("LogInto wrote %v at %d of %v, want %v", dst[i], i, src, math.Log(v))
		}
	}
}

// TestSigmoidVectorFallback pins which blocks the vector sigmoid takes: a
// block whose -|z| stays at or above -708 runs in the vector kernel, one
// with a lane below it or NaN is left to the scalar loop.
func TestSigmoidVectorFallback(t *testing.T) {
	needVector(t)
	out := make([]float64, 17)
	for _, tc := range []struct {
		z    []float64
		want int
	}{
		{[]float64{-1, 0, 1, 708, -708, 2, 3, 4, 5}, 8},
		{[]float64{0, 1, 2, -708.0000000000001, 4, 5, 6, 7, 8}, 0},
		{[]float64{0, 1, 2, 3, 4, 5, math.NaN(), 7, 8}, 4},
		{[]float64{0, 1, 2, 3, 4, 5, 6, math.Inf(1), 8}, 4},
		// A pair whose second block fails runs its first block alone.
		{[]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, -800, 14, 15, 16}, 12},
		{[]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, -800, 10, 11, 12, 13, 14, 15, 16}, 8},
	} {
		if got := sigmoidAVX2(out[:len(tc.z)], tc.z); got != tc.want {
			t.Fatalf("sigmoidAVX2(%v) wrote %d elements, want %d", tc.z, got, tc.want)
		}
	}
}

// edgeValue draws design entries that include signed zeros, subnormals
// and large magnitudes alongside ordinary values.
func edgeValue(g *rand.Rand) float64 {
	switch g.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(uint64(g.Int63n(1<<52))) * float64(1-2*g.Intn(2)) // subnormal
	case 3:
		return g.NormFloat64() * 1e300
	case 4:
		return g.NormFloat64() * 1e-300
	default:
		return g.NormFloat64()
	}
}

func edgeSlice(g *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = edgeValue(g)
	}
	return s
}

// kernelRows are the row counts the differential tests cover: every
// count up to 40 (all block and tail shapes) and fig7-cold's training
// size, with and without a tail.
func kernelRows() []int {
	rows := []int{3500, 3501}
	for r := 0; r <= 40; r++ {
		rows = append(rows, r)
	}
	return rows
}

func TestAffineVectorMatchesScalar(t *testing.T) {
	needVector(t)
	g := rand.New(rand.NewSource(17))
	for _, r := range kernelRows() {
		for c := 1; c <= 33; c++ {
			d := &Dense{Data: edgeSlice(g, r*c), Rows: r, Cols: c, Stride: c}
			w, bias := edgeSlice(g, c), edgeValue(g)
			des := NewDesign(*d)
			got, want := make([]float64, r), make([]float64, r)
			des.AffineInto(got, w, bias)
			scalarOnly(func() { d.AffineInto(want, w, bias) })
			for i := range want {
				if !sameFloat(got[i], want[i]) {
					t.Fatalf("%d×%d row %d: vector %x, scalar %x", r, c, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// tieValue draws from a small integer grid, so many rows sit at exactly
// the same distance from a query, as kNN's tie-heavy inputs do.
func tieValue(g *rand.Rand) float64 { return float64(g.Intn(5)) - 2 }

func TestSqDistVectorMatchesScalar(t *testing.T) {
	needVector(t)
	g := rand.New(rand.NewSource(23))
	for _, draw := range []func(*rand.Rand) float64{edgeValue, tieValue} {
		for _, r := range kernelRows() {
			for c := 1; c <= 33; c++ {
				d := &Dense{Data: make([]float64, r*c), Rows: r, Cols: c, Stride: c}
				q := make([]float64, c)
				for i := range d.Data {
					d.Data[i] = draw(g)
				}
				for j := range q {
					q[j] = draw(g)
				}
				des := NewDesign(*d)
				got, want := make([]float64, r), make([]float64, r)
				des.SqDistInto(got, q)
				scalarOnly(func() { des.SqDistInto(want, q) })
				for i := range want {
					if !sameFloat(got[i], want[i]) {
						t.Fatalf("%d×%d row %d: vector %x, scalar %x", r, c, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// TestVectorRows checks that scatterAVX2 is given every row whose last
// vector ends inside the matrix, and no other.
func TestVectorRows(t *testing.T) {
	for c := 1; c <= 33; c++ {
		end := (c + 3) &^ 3
		for n := 0; n <= 40; n++ {
			k := vectorRows(n, c)
			if k < 0 || k > n || (k > 0 && (k-1)*c+end > n*c) || (k < n && k*c+end <= n*c) {
				t.Fatalf("vectorRows(%d, %d) = %d", n, c, k)
			}
		}
	}
}

func TestScatterVectorMatchesScalar(t *testing.T) {
	needVector(t)
	g := rand.New(rand.NewSource(19))
	for _, r := range kernelRows() {
		for c := 1; c <= 33; c++ {
			d := &Dense{Data: edgeSlice(g, r*c), Rows: r, Cols: c, Stride: c}
			coef := edgeSlice(g, r)
			got := edgeSlice(g, c)
			want := append([]float64(nil), got...)
			d.ScatterRows(got, coef)
			scalarOnly(func() { d.ScatterRows(want, coef) })
			for j := range want {
				if !sameFloat(got[j], want[j]) {
					t.Fatalf("%d×%d col %d: vector %x, scalar %x", r, c, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
				}
			}
		}
	}
}

// scatterAffineRef is the per-row loop ScatterAffine replaced: each row's
// terms added to every column, then its coefficient to the intercept.
func scatterAffineRef(d *Dense, dst, g []float64) {
	c := d.Cols
	for i, gi := range g {
		AccumulateInto(dst[:c], gi, d.Row(i))
		dst[c] += gi
	}
}

// residualRef is the coefficient the per-row loops computed: (p − y)/n
// for the mean loss, w·(p − y) for the weighted one, p − y for the
// weighted one without weights, and (w·(p − y))/n otherwise.
func residualRef(w, p, y []float64, n float64, i int) float64 {
	r := p[i] - y[i]
	if w != nil {
		r = w[i] * r
	}
	if n != 1 {
		r /= n
	}
	return r
}

// TestScatterAffineVectorMatchesPerRow holds ScatterAffine and
// ResidualScatter, on both paths, to the per-row loops they replaced,
// over every width from 1 to 33 (so every lane position of the intercept
// and every chunk shape) and every row count up to 40 plus fig7-cold's,
// with and without a tail of rows that ends mid-block.
func TestScatterAffineVectorMatchesPerRow(t *testing.T) {
	g := rand.New(rand.NewSource(37))
	for _, r := range kernelRows() {
		for c := 1; c <= 33; c++ {
			d := &Dense{Data: edgeSlice(g, r*c), Rows: r, Cols: c, Stride: c}
			coef, p, y, wt := edgeSlice(g, r), edgeSlice(g, r), edgeSlice(g, r), edgeSlice(g, r)
			dst := edgeSlice(g, c+1)
			want := append([]float64(nil), dst...)
			scatterAffineRef(d, want, coef)
			check := func(what string, got []float64) {
				t.Helper()
				for j := range want {
					if !sameFloat(got[j], want[j]) {
						t.Fatalf("%s %d×%d col %d: got %x, per-row %x", what, r, c, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
					}
				}
			}
			for _, path := range []func(func()){func(f func()) { f() }, scalarOnly} {
				path(func() {
					des := NewDesign(*d)
					got := append([]float64(nil), dst...)
					des.ScatterAffine(got, coef)
					check("ScatterAffine", got)
				})
			}
			for _, w := range [][]float64{nil, wt} {
				for _, n := range []float64{1, float64(r)} {
					res := make([]float64, r)
					for i := range res {
						res[i] = residualRef(w, p, y, n, i)
					}
					want = append(want[:0], dst...)
					scatterAffineRef(d, want, res)
					for _, path := range []func(func()){func(f func()) { f() }, scalarOnly} {
						path(func() {
							des := NewDesign(*d)
							got, gs := append([]float64(nil), dst...), make([]float64, r)
							des.ResidualScatter(got, gs, w, p, y, n)
							check("ResidualScatter", got)
							for i := range res {
								if !sameFloat(gs[i], res[i]) {
									t.Fatalf("ResidualScatter %d×%d residual %d: got %x, per-row %x", r, c, i, math.Float64bits(gs[i]), math.Float64bits(res[i]))
								}
							}
						})
					}
				}
			}
		}
	}
}

// sigmoidInputs fills z with one family of the differential test's
// inputs.
func sigmoidInputs(g *rand.Rand, family int, z []float64) {
	near := []float64{708, -708, 745, -745}
	for i := range z {
		switch family {
		case 0:
			z[i] = 3 * g.NormFloat64()
		case 1:
			z[i] = 80*g.Float64() - 40
		case 2:
			z[i] = 1600*g.Float64() - 800
		case 3:
			z[i] = math.Float64frombits(g.Uint64()) // NaN, ±Inf, subnormals
		case 4:
			v := near[g.Intn(len(near))]
			switch g.Intn(3) {
			case 0:
				v = math.Nextafter(v, math.Inf(1))
			case 1:
				v = math.Nextafter(v, math.Inf(-1))
			}
			z[i] = v
		}
	}
}

// TestSigmoidVectorMatchesScalar runs 10⁷ inputs through both paths. It
// is also the tripwire for a Go release that changes math.Exp: the vector
// path replicates today's exp_amd64.s and must then be updated.
func TestSigmoidVectorMatchesScalar(t *testing.T) {
	needVector(t)
	g := rand.New(rand.NewSource(23))
	const chunk = 1 << 16
	z := make([]float64, chunk)
	got, want := make([]float64, chunk), make([]float64, chunk)
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	total := 0
	for round := 0; total < 10_000_000; round++ {
		sigmoidInputs(g, round%5, z)
		for k, v := range special {
			z[(round*31+k*977)%chunk] = v
		}
		n := chunk - round%7 // vary the tail
		SigmoidInto(got[:n], z[:n])
		scalarOnly(func() { SigmoidInto(want[:n], z[:n]) })
		for i := 0; i < n; i++ {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("sigmoid(%v = %x): vector %x, scalar %x", z[i], math.Float64bits(z[i]),
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
		total += n
	}
}

// maxLogHalf is math.tanh's saturation threshold, MAXLOG/2.
const maxLogHalf = 0.5 * 8.8029691931113054295988e+01

// tanhInputs fills x with one family of the tanh differential test's
// inputs.
func tanhInputs(g *rand.Rand, family int, x []float64) {
	edges := []float64{0.625, maxLogHalf}
	for i := range x {
		switch family {
		case 0:
			x[i] = g.NormFloat64()
		case 1:
			x[i] = 5 * g.NormFloat64()
		case 2:
			x[i] = 100*g.Float64() - 50
		case 3:
			x[i] = 2.6*g.Float64() - 1.3
		case 4:
			x[i] = math.Float64frombits(g.Uint64()) // NaN, ±Inf, subnormals
		case 5:
			v := edges[g.Intn(len(edges))]
			switch g.Intn(3) {
			case 0:
				v = math.Nextafter(v, math.Inf(1))
			case 1:
				v = math.Nextafter(v, math.Inf(-1))
			}
			x[i] = v * float64(1-2*g.Intn(2))
		}
	}
}

// TestTanhVectorMatchesScalar runs 10⁷ inputs through both paths. Like
// the sigmoid test, it is the tripwire for a Go release that changes
// math.Tanh or math.Exp, or starts fusing tanh's polynomial.
func TestTanhVectorMatchesScalar(t *testing.T) {
	needVector(t)
	g := rand.New(rand.NewSource(29))
	const chunk = 1 << 16
	x := make([]float64, chunk)
	got, want := make([]float64, chunk), make([]float64, chunk)
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1023,
		math.MaxFloat64, -math.MaxFloat64}
	total := 0
	for round := 0; total < 10_000_000; round++ {
		tanhInputs(g, round%6, x)
		for k, v := range special {
			x[(round*31+k*977)%chunk] = v
		}
		n := chunk - round%7 // vary the tail
		TanhInto(got[:n], x[:n])
		scalarOnly(func() { TanhInto(want[:n], x[:n]) })
		for i := 0; i < n; i++ {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("tanh(%v = %x): vector %x, scalar %x", x[i], math.Float64bits(x[i]),
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
		total += n
	}
}

// logInputs fills x with one family of the log differential test's
// inputs.
func logInputs(g *rand.Rand, family int, x []float64) {
	const eps = 1e-12 // the logistic loss's clamp
	for i := range x {
		switch family {
		case 0:
			x[i] = g.Float64()
		case 1:
			switch g.Intn(8) {
			case 0:
				x[i] = eps
			case 1:
				x[i] = 1 - eps
			default:
				x[i] = eps + (1-2*eps)*g.Float64()
			}
		case 2:
			// √2/2·2^k, the reduction test's edge, and one ulp either side.
			v := math.Ldexp(math.Sqrt2/2, g.Intn(2045)-1021)
			switch g.Intn(3) {
			case 0:
				v = math.Nextafter(v, math.Inf(1))
			case 1:
				v = math.Nextafter(v, 0)
			}
			x[i] = v
		case 3:
			x[i] = math.Float64frombits(g.Uint64()) // NaN, ±Inf, subnormals, negatives
		case 4:
			x[i] = math.Float64frombits(g.Uint64() >> 1) // positive, every exponent
		case 5:
			x[i] = math.Ldexp(1, g.Intn(2098)-1074) // powers of two, subnormal ones too
		}
	}
}

// TestLogVectorMatchesScalar runs 10⁷ inputs through LogInto and holds
// each output to math.Log bit for bit, with every special value in every
// lane of a block. It is the tripwire for a Go release that changes
// math.Log: the vector path replicates today's log_amd64.s and must then
// be updated.
func TestLogVectorMatchesScalar(t *testing.T) {
	needVector(t)
	g := rand.New(rand.NewSource(31))
	const chunk = 1 << 16
	x := make([]float64, chunk)
	got := make([]float64, chunk)
	// The inputs the replica leaves to math.Log, and the normal numbers
	// next to them.
	special := []float64{0, math.Copysign(0, -1), -1, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(), -math.NaN(), math.SmallestNonzeroFloat64, 0x1p-1022, math.Nextafter(0x1p-1022, 0),
		math.MaxFloat64, -0x1p-1030}
	total := 0
	for round := 0; total < 10_000_000; round++ {
		logInputs(g, round%6, x)
		for k, v := range special {
			x[k*4*97+(round+k)%4] = v
		}
		n := chunk - round%7 // vary the tail
		LogInto(got[:n], x[:n])
		for i, v := range x[:n] {
			if want := math.Log(v); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("log(%v = %x): vector %x, math.Log %x", v, math.Float64bits(v),
					math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
		total += n
	}
}

// TestLikelihoodVectorMatchesScalar holds LikelihoodInto's two paths to
// each other bit for bit over every length up to 40 and fig7-cold's
// training size, with probabilities at and one ulp either side of both
// clamp bounds, outside [0, 1], ±0, subnormal, ±Inf and NaN, and labels
// 0 and 1 as well as 0.5 one ulp either side, and NaN.
func TestLikelihoodVectorMatchesScalar(t *testing.T) {
	needVector(t)
	g := rand.New(rand.NewSource(41))
	const lo, hi = 1e-12, 1 - 1e-12
	edges := []float64{lo, math.Nextafter(lo, 0), math.Nextafter(lo, 1), hi, math.Nextafter(hi, 0), math.Nextafter(hi, 1),
		0, math.Copysign(0, -1), 1, -0.5, 1.5, 0x1p-1074, math.Inf(1), math.Inf(-1), math.NaN()}
	labels := []float64{0, 1, 0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), math.NaN()}
	for _, r := range kernelRows() {
		p, y := make([]float64, r), make([]float64, r)
		for i := range p {
			p[i] = g.Float64()
			if g.Intn(3) == 0 {
				p[i] = edges[g.Intn(len(edges))]
			}
			y[i] = float64(g.Intn(2))
			if g.Intn(5) == 0 {
				y[i] = labels[g.Intn(len(labels))]
			}
		}
		got, want := make([]float64, r), make([]float64, r)
		LikelihoodInto(got, p, y)
		scalarOnly(func() { LikelihoodInto(want, p, y) })
		for i := range want {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("%d tuples, tuple %d (p %x, y %v): vector %x, scalar %x", r, i, math.Float64bits(p[i]), y[i],
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// decodeFloats reads little-endian float64s from b.
func decodeFloats(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func encodeFloats(vs ...float64) []byte {
	b := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

func FuzzSigmoidInto(f *testing.F) {
	f.Add(encodeFloats(0, -1, 2, 708.5, -709, math.NaN(), 3, 4, 5))
	f.Add(encodeFloats(math.Inf(1), math.Inf(-1), 1e-310, -745.1, 37, -37, 0.5))
	// Special lanes only in the second block of a pair, then in a third.
	f.Add(encodeFloats(0, 1, 2, 3, 4, math.NaN(), 6, 7, 8, 9, 10, 11))
	f.Add(encodeFloats(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, -709, 11, 12))
	f.Fuzz(func(t *testing.T, b []byte) {
		needVector(t)
		z := decodeFloats(b)
		got, want := make([]float64, len(z)), make([]float64, len(z))
		SigmoidInto(got, z)
		scalarOnly(func() { SigmoidInto(want, z) })
		for i := range z {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("sigmoid(%x): vector %x, scalar %x", math.Float64bits(z[i]), math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}

func FuzzTanhInto(f *testing.F) {
	f.Add(encodeFloats(0, math.Copysign(0, -1), 0.625, -0.6249999999999999, 44.01484596555653, -44.01484596555654, math.NaN(), 1e-310))
	f.Add(encodeFloats(math.Inf(1), math.Inf(-1), 44.01484596555653, 0.3, -2, 7, 1e300))
	f.Add(encodeFloats(0.1, 0.2, 0.3, 0.4, 0.5, math.NaN(), 0.7, 0.8, 0.9, 1, 1.1))
	f.Add(encodeFloats(1, 2, 3, 4, 5, 6, 7, 8, 0.625, math.Copysign(0, -1), math.Inf(-1), 45, 0.1))
	f.Fuzz(func(t *testing.T, b []byte) {
		needVector(t)
		x := decodeFloats(b)
		got, want := make([]float64, len(x)), make([]float64, len(x))
		TanhInto(got, x)
		scalarOnly(func() { TanhInto(want, x) })
		for i := range x {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("tanh(%x): vector %x, scalar %x", math.Float64bits(x[i]), math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}

func FuzzLogInto(f *testing.F) {
	f.Add(encodeFloats(0.5, 1e-12, 1-1e-12, 0.7071067811865476, 2, 0, 3, 4, 5))
	f.Add(encodeFloats(math.Inf(1), -1, 1e-310, math.NaN(), 0x1p-1022, math.MaxFloat64, 0.25))
	f.Add(encodeFloats(0.5, 0.25, 2, 3, 4, 0, 6, 7, 8, 9, 10))
	f.Add(encodeFloats(0.5, 0.25, 2, 3, 4, 5, 6, 7, 8, 1e-310, 10, math.NaN(), 12))
	f.Fuzz(func(t *testing.T, b []byte) {
		needVector(t)
		x := decodeFloats(b)
		got := make([]float64, len(x))
		LogInto(got, x)
		for i, v := range x {
			if want := math.Log(v); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("log(%x): vector %x, math.Log %x", math.Float64bits(v), math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	})
}

// FuzzLikelihoodInto holds LikelihoodInto's vector path to its scalar
// loop; the values are the probabilities, then as many labels.
func FuzzLikelihoodInto(f *testing.F) {
	f.Add(encodeFloats(0.5, 1e-13, 1, 0.999999999999, 0, 1, 1, 0))
	f.Add(encodeFloats(math.NaN(), -0.0, math.Inf(1), 2, 1e-310, 0.3, 0.7, 0.2, 0.5, 1, math.NaN(), 0, 0.49999999999999994, 1, 0, 1))
	f.Fuzz(func(t *testing.T, b []byte) {
		needVector(t)
		vs := decodeFloats(b)
		r := len(vs) / 2
		p, y := vs[:r], vs[r:2*r]
		got, want := make([]float64, r), make([]float64, r)
		LikelihoodInto(got, p, y)
		scalarOnly(func() { LikelihoodInto(want, p, y) })
		for i := range want {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("p %x, y %x: vector %x, scalar %x", math.Float64bits(p[i]), math.Float64bits(y[i]), math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}

// fuzzShape splits b into a column count (1..33, from the first byte) and
// the float64s that follow.
func fuzzShape(b []byte) (int, []float64) {
	if len(b) == 0 {
		return 0, nil
	}
	return int(b[0])%33 + 1, decodeFloats(b[1:])
}

func FuzzAffineInto(f *testing.F) {
	f.Add(append([]byte{2}, encodeFloats(0.5, -1, 0.25, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14)...))
	f.Add(append([]byte{0}, encodeFloats(1e300, -1e300, 1e-310, 3, 4, 5, 6)...))
	f.Fuzz(func(t *testing.T, b []byte) {
		needVector(t)
		c, vs := fuzzShape(b)
		if len(vs) < c+1 {
			return
		}
		w, bias, vs := vs[:c], vs[c], vs[c+1:]
		r := len(vs) / c
		d := Dense{Data: vs[:r*c], Rows: r, Cols: c, Stride: c}
		des := NewDesign(d)
		got, want := make([]float64, r), make([]float64, r)
		des.AffineInto(got, w, bias)
		scalarOnly(func() { d.AffineInto(want, w, bias) })
		for i := range want {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("%d×%d row %d: vector %x, scalar %x", r, c, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}

func FuzzSqDistInto(f *testing.F) {
	f.Add(append([]byte{2}, encodeFloats(0.5, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14)...))
	f.Add(append([]byte{0}, encodeFloats(1e300, -1e300, 1e-310, 3, 4, 5, 6)...))
	f.Fuzz(func(t *testing.T, b []byte) {
		needVector(t)
		c, vs := fuzzShape(b)
		if c == 0 || len(vs) < c {
			return
		}
		q, vs := vs[:c], vs[c:]
		r := len(vs) / c
		d := Dense{Data: vs[:r*c], Rows: r, Cols: c, Stride: c}
		des := NewDesign(d)
		got, want := make([]float64, r), make([]float64, r)
		des.SqDistInto(got, q)
		scalarOnly(func() { des.SqDistInto(want, q) })
		for i := range want {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("%d×%d row %d: vector %x, scalar %x", r, c, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}

func FuzzScatterRows(f *testing.F) {
	f.Add(append([]byte{4}, encodeFloats(1, 2, 3, 4, 5, 0.5, -2, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)...))
	f.Add(append([]byte{0}, encodeFloats(-0.0, 1e-310, 1e300, 2, -3, 4)...))
	// Whole vectors only, a one-column tail, and a tail after three vectors.
	for _, c := range []int{8, 9, 13} {
		f.Add(scatterSeed(c, 7))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		needVector(t)
		c, vs := fuzzShape(b)
		if len(vs) < c {
			return
		}
		dst, vs := vs[:c], vs[c:]
		r := len(vs) / (c + 1)
		coef, x := vs[:r], vs[r:r+r*c]
		d := Dense{Data: x, Rows: r, Cols: c, Stride: c}
		got := append([]float64(nil), dst...)
		want := append([]float64(nil), dst...)
		d.ScatterRows(got, coef)
		scalarOnly(func() { d.ScatterRows(want, coef) })
		for j := range want {
			if !sameFloat(got[j], want[j]) {
				t.Fatalf("%d×%d col %d: vector %x, scalar %x", r, c, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
	})
}

// scatterSeed returns a fuzzShape input of c columns (c at most 33)
// followed by enough values for rows rows of FuzzScatterRows and
// FuzzResidualScatter.
func scatterSeed(c, rows int) []byte {
	vs := make([]float64, c+1+rows*(c+3))
	for i := range vs {
		vs[i] = float64(i%7) - 2.5
	}
	return append([]byte{byte(c - 1)}, encodeFloats(vs...)...)
}

// FuzzResidualScatter holds the fused residual pass and scatter to the
// scalar path. The first byte says whether tuples are weighted (bit 0)
// and whether the residuals are divided by the row count (bit 1); the
// rest is a fuzzShape input whose values are dst (columns+1), then the
// rows' features, then per row its p, y and weight.
func FuzzResidualScatter(f *testing.F) {
	for _, c := range []int{8, 9, 13} {
		for flags := byte(0); flags < 4; flags++ {
			f.Add(append([]byte{flags}, scatterSeed(c, 9)...))
		}
	}
	f.Add(append([]byte{3, 2}, encodeFloats(1, 2, 3, 4, 5, 0.5, 1, 2, -0.0, 0, 1e-310, 3, 7, 0.25, 1)...))
	f.Fuzz(func(t *testing.T, b []byte) {
		needVector(t)
		if len(b) == 0 {
			return
		}
		flags := b[0]
		c, vs := fuzzShape(b[1:])
		if len(vs) < c+1 {
			return
		}
		dst, vs := vs[:c+1], vs[c+1:]
		r := len(vs) / (c + 3)
		x, vs := vs[:r*c], vs[r*c:]
		p, y, wt := vs[:r], vs[r:2*r], vs[2*r:3*r]
		var w []float64
		if flags&1 != 0 {
			w = wt
		}
		n := 1.0
		if flags&2 != 0 {
			n = float64(r)
		}
		d := Dense{Data: x, Rows: r, Cols: c, Stride: c}
		got, want := append([]float64(nil), dst...), append([]float64(nil), dst...)
		gg, gw := make([]float64, r), make([]float64, r)
		des := NewDesign(d)
		des.ResidualScatter(got, gg, w, p, y, n)
		scalarOnly(func() {
			des := NewDesign(d)
			des.ResidualScatter(want, gw, w, p, y, n)
		})
		for j := range want {
			if !sameFloat(got[j], want[j]) {
				t.Fatalf("%d×%d col %d: vector %x, scalar %x", r, c, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
		for i := range gw {
			if !sameFloat(gg[i], gw[i]) {
				t.Fatalf("%d×%d residual %d: vector %x, scalar %x", r, c, i, math.Float64bits(gg[i]), math.Float64bits(gw[i]))
			}
		}
	})
}

// BenchmarkTrainingKernels times each kernel on both paths at fig7-cold's
// training shape: a 70% split of Adult n=5000, 3500 rows by 9 features.
// log takes one loss pass's 3500 probabilities, inside the loss's clamp
// range [1e-12, 1-1e-12], likelihood stages their terms, and fused runs
// the residual pass and scatter of the mean logistic loss's gradient over
// them, intercept included. tanh runs on the MLP's block instead: 20
// hidden units by a 32-row batch.
func BenchmarkTrainingKernels(b *testing.B) {
	needVector(b)
	g := rand.New(rand.NewSource(1))
	const r, c = 3500, 9
	d := NewDense(r, c)
	for i := range d.Data {
		d.Data[i] = g.NormFloat64()
	}
	des := NewDesign(*d)
	w, z, out := make([]float64, c), make([]float64, r), make([]float64, r)
	for i := range w {
		w[i] = g.NormFloat64()
	}
	des.AffineInto(z, w, 0.5)
	act := make([]float64, 20*32)
	for i := range act {
		act[i] = g.NormFloat64()
	}
	hid := make([]float64, len(act))
	prob, labels, coef, grad := make([]float64, r), make([]float64, r), make([]float64, r), make([]float64, c+1)
	for i := range prob {
		prob[i] = 1e-12 + (1-2e-12)*g.Float64()
		labels[i] = float64(g.Intn(2))
	}
	kernels := []struct {
		name string
		run  func()
	}{
		{"zpass", func() { des.AffineInto(out, w, 0.5) }},
		{"scatter", func() { d.ScatterRows(w, z) }},
		{"sqdist", func() { des.SqDistInto(out, w) }},
		{"sigmoid", func() { SigmoidInto(out, z) }},
		{"tanh", func() { TanhInto(hid, act) }},
		{"log", func() { LogInto(out, prob) }},
		{"fused", func() { des.ResidualScatter(grad, coef, nil, prob, labels, r) }},
		{"likelihood", func() { LikelihoodInto(out, prob, labels) }},
	}
	for _, k := range kernels {
		b.Run(k.name+"/vector", func(b *testing.B) {
			for b.Loop() {
				k.run()
			}
		})
		b.Run(k.name+"/scalar", func(b *testing.B) {
			scalarOnly(func() {
				for b.Loop() {
					k.run()
				}
			})
		})
	}
}
