package matrix

import (
	"fmt"
	"math"
)

// This file holds the hot training kernels: the inner loops every Adam
// iteration and every MLP mini-batch of every grid cell runs, the log of
// every logistic-loss evaluation, and the distance scan of every kNN
// query. Their scalar loops are written so
// the compiler proves all indexing in bounds (verified in CI by building
// with -gcflags=-d=ssa/check_bce and failing on any IsInBounds finding
// in this file), and AffineInto and ScatterRows block rows in groups of
// four so the four independent accumulator chains pipeline.
//
// Bit-exactness contract: every kernel preserves the exact floating-point
// fold order of the scalar loop it replaces — one accumulator per output
// element, ascending index — because grid results must stay byte-identical
// across the serial, pooled, sharded, and served execution paths. NaN
// payloads are outside the contract: which of two NaN operands survives
// depends on how the compiler orders an addition's operands, which the
// scalar loops themselves do not fix.
//
// Vector path. On amd64 CPUs with AVX2, FMA and OS-enabled YMM state
// (checked once, by CPUID and XGETBV in kernels_amd64.s),
// Design.AffineInto, Design.SqDistInto, Design.ScatterAffine,
// Design.ResidualScatter, SigmoidInto, TanhInto, LogInto, LikelihoodInto
// and ScatterRows run AVX2 assembly instead; every other CPU and GOARCH
// runs the scalar loops, which stay the reference. The lane rule: a vector kernel
// computes four outputs the scalar loop already computes independently,
// and each lane repeats that output's scalar fold operation for
// operation — the product and the sum rounded separately (never fused),
// in the scalar order. The z-pass runs one row per lane over a
// column-major copy of the design (Design, built once per fit), the
// gradient scatter one column per lane over the row-major design, and
// the sigmoid, tanh and likelihood one element per lane. The kNN distance scan
// (Design.SqDistInto) runs one training row per lane over the same
// column-major copy: each lane subtracts the query's column value,
// squares the difference and adds it to a sum that starts at 0, each step
// rounded on its own, column by column in ascending order. Row tails the
// vector loops leave run the scalar loops.
//
// The scatter's column tail: a row's last vector is loaded whole,
// unmasked, even when it holds fewer than four columns; the lanes past
// the last column read the next row's first values, accumulate terms
// nobody reads, and are never stored. Only dst's load and store are
// masked, once per call. The rows whose last vector would read past the
// end of the matrix (vectorRows) run the scalar loop after the vector
// rows, which keeps each column's ascending row order.
//
// The fused pass (Design.ResidualScatter) is the residual pass and the
// scatter of a linear fit's gradient in one loop. For each block of four
// rows it computes the residuals g_i = w_i·(p_i − y_i)/n one tuple per
// lane, each step rounded on its own as residualScalar rounds it, and
// stores them; the scatter then broadcasts each row's g_i from there, so
// the divides run beside the scatter's chains of adds instead of before
// them. It scatters over the augmented copy of the design (Design.aug):
// each row's features, a 1, then zeros up to a whole number of vectors.
// The intercept is the lane that holds that 1, the lane right after the
// last feature: the spare lane of the last vector, or lane 0 of one more
// vector when the feature count is a multiple of four. Its accumulator
// adds g_i·1, which is g_i exactly, in ascending row order: the fold the
// scalar loops ran apart from the scatter. The padding lanes add
// g_i·0 and are never stored, so the augmented rows need no tail at all.
// Rows left over after the last block of four take residualScalar and
// the plain scatter, and columns past the first sixteen a second plain
// scatter over the stored residuals.
//
// Blocks interleave. The exp replica and the log replica are each one
// chain of some thirty dependent instructions per block of four, so one
// block in flight leaves most of the vector units idle. sigmoidAVX2,
// tanhAVX2 and logAVX2 therefore run two independent blocks per loop
// iteration, their steps interleaved, and take a lone block when
// fewer than eight elements are left or when a lane of the pair needs the
// scalar fallback; so the fallback covers exactly the block it covered
// before. Most of their constants come from memory, each replicated to
// a full vector, which frees the registers the second block needs.
//
// The sigmoid carries a replica of math.Exp, because the call into Go's
// exp assembly can be neither inlined nor vectorized. math.Exp already
// differs between FMA and non-FMA CPUs (exp_amd64.s fuses its reduction
// and Horner steps when the CPU has FMA), and every CPU that takes the
// vector path also takes that FMA path, so the replica repeats its
// instructions lane-wise: FMA appears there and nowhere else. A block of
// four whose -|z| falls below -708 in any lane, or is NaN, runs the scalar
// loop, so the replica needs none of exp's underflow, denormal or NaN
// branches. CI tests on go.mod's Go and on the latest stable release, so
// a release that changes math.Exp fails the sigmoid differential test in
// kernels_vector_test.go: that is the intended tripwire, and the replica
// must then follow the new code.
//
// The tanh kernel replicates math.tanh (pure Go on amd64) lane by lane:
// ±1 above MAXLOG/2, 1 - 2/(exp(2|x|)+1) with x's sign from |x| >= 0.625
// (exp from the sigmoid's replica), and below that the rational
// polynomial x + x·s·P(s)/Q(s), each lane computing both formulas and
// blending, with x == 0 returning x. Go 1.24's amd64 compiler leaves
// that polynomial unfused even at GOAMD64=v3 (checked by disassembling
// math.tanh), so the replica rounds every product and sum on its own. A
// release that starts fusing it, or changes math.Tanh, fails the tanh
// differential test the same way.
//
// The log kernel replicates log_amd64.s, the assembly math.Log runs on
// every amd64 CPU, one element per lane. That file has no FMA branch, so
// the replica fuses nothing: every product, sum and its one divide round
// on their own, in its order. Only a block whose four lanes are positive
// finite normal numbers takes the vector path (the test reads the bits);
// a block with ±0, a negative, a subnormal, ±Inf or NaN in any lane runs
// math.Log. The argument reduction copies the assembly's comparison,
// CMPSD NLT, which halves the mantissa's range at f1 <= √2/2 where
// log.go writes f1 < √2/2. A Go release that changes math.Log fails the
// log differential test, the same tripwire as exp's and tanh's.

// useVector selects the AVX2 kernels. It is fixed at start-up; tests
// reach the scalar reference through export_test.go.
var useVector = hasAVX2FMA()

// Dot returns the inner product of a and b. It panics if lengths differ,
// because a length mismatch is always a programming error in this codebase.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("matrix: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	b = b[:len(a)]
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("matrix: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	y = y[:len(x)]
	for i, v := range x {
		y[i] += alpha * v
	}
}

// AffineInto computes dst[i] = bias + Σ_j w[j]·d[i][j] for every row —
// the z-pass of a linear model with the intercept folded in first, exactly
// as the classifiers' scalar loops accumulate it. dst must have length
// d.Rows and w length d.Cols. Rows are processed in blocks of four with
// one independent accumulator each, so the result is bit-identical to the
// one-row-at-a-time fold. This is the scalar z-pass; Design.AffineInto
// runs the vector one where the CPU allows.
func (d *Dense) AffineInto(dst, w []float64, bias float64) {
	if len(dst) != d.Rows || len(w) != d.Cols {
		panic(fmt.Sprintf("matrix: AffineInto dims %d×%d vs dst %d, w %d", d.Rows, d.Cols, len(dst), len(w)))
	}
	if d.Rows == 0 {
		return
	}
	if d.Stride != d.Cols {
		for i := range dst {
			dst[i] = affineRow(d.Row(i), w, bias)
		}
		return
	}
	c := d.Cols
	data := d.Data[:d.Rows*c]
	dst = dst[:d.Rows]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		off := i * c
		r0 := data[off+0*c : off+1*c]
		r1 := data[off+1*c : off+2*c]
		r2 := data[off+2*c : off+3*c]
		r3 := data[off+3*c : off+4*c]
		r0 = r0[:len(w)]
		r1 = r1[:len(w)]
		r2 = r2[:len(w)]
		r3 = r3[:len(w)]
		z0, z1, z2, z3 := bias, bias, bias, bias
		for j, wj := range w {
			z0 += wj * r0[j]
			z1 += wj * r1[j]
			z2 += wj * r2[j]
			z3 += wj * r3[j]
		}
		ds := dst[i : i+4 : i+4]
		ds[0] = z0
		ds[1] = z1
		ds[2] = z2
		ds[3] = z3
	}
	tail := dst[i:]
	for k := range tail {
		off := (i + k) * c
		tail[k] = affineRow(data[off:off+c], w, bias)
	}
}

// AffineInto is Dense.AffineInto, bit for bit, running the vector z-pass
// over the column-major copy where the CPU allows.
func (d *Design) AffineInto(dst, w []float64, bias float64) {
	if !useVector || d.cols == nil || len(dst) != d.Rows || len(w) != d.Cols {
		d.Dense.AffineInto(dst, w, bias) // also panics on a dims mismatch
		return
	}
	affineColsAVX2(dst, d.cols, w, bias)
	c := d.Cols
	data := d.Data[:d.Rows*c]
	i := len(dst) &^ 3
	tail := dst[i:]
	for k := range tail {
		off := (i + k) * c
		tail[k] = affineRow(data[off:off+c], w, bias)
	}
}

// SqDistInto computes dst[i] = Σ_j (d[i][j] − q[j])² for every row: one
// kNN query's squared Euclidean distances to all training rows. Each
// term's difference, square and sum round on their own, in ascending j
// with one accumulator starting at 0. This is the scalar scan;
// Design.SqDistInto runs the vector one where the CPU allows. dst must
// have length d.Rows and q length d.Cols.
func (d *Dense) SqDistInto(dst, q []float64) {
	if len(dst) != d.Rows || len(q) != d.Cols {
		panic(fmt.Sprintf("matrix: SqDistInto dims %d×%d vs dst %d, q %d", d.Rows, d.Cols, len(dst), len(q)))
	}
	for i := range dst {
		dst[i] = sqDistRow(d.Row(i), q)
	}
}

// SqDistInto is Dense.SqDistInto, bit for bit, running the vector scan
// over the column-major copy where the CPU allows.
func (d *Design) SqDistInto(dst, q []float64) {
	if !useVector || d.cols == nil || len(dst) != d.Rows || len(q) != d.Cols {
		d.Dense.SqDistInto(dst, q) // also panics on a dims mismatch
		return
	}
	sqDistColsAVX2(dst, d.cols, q)
	c := d.Cols
	data := d.Data[:d.Rows*c]
	i := len(dst) &^ 3
	tail := dst[i:]
	for k := range tail {
		off := (i + k) * c
		tail[k] = sqDistRow(data[off:off+c], q)
	}
}

// sqDistRow is the scalar fold SqDistInto's vector path reproduces.
func sqDistRow(row, q []float64) float64 {
	var s float64
	row = row[:len(q)]
	for j, v := range q {
		t := row[j] - v
		s += t * t
	}
	return s
}

// affineRow is the scalar fold AffineInto's block path reproduces:
// z starts at bias, then accumulates w[j]·row[j] in ascending j with a
// single accumulator.
func affineRow(row, w []float64, bias float64) float64 {
	z := bias
	row = row[:len(w)]
	for j, wj := range w {
		z += wj * row[j]
	}
	return z
}

// SigmoidInto computes dst[i] = Sigmoid(src[i]) for every element. The
// body is Sigmoid's numerically stable form with the branch folded into a
// select — exp(-|z|) equals the branch-specific exponent (-z for z >= 0,
// z otherwise) exactly, so each element is bit-identical to a Sigmoid
// call — written out here because Sigmoid itself exceeds the inlining
// budget and per-element call overhead is measurable in the training hot
// loops.
func SigmoidInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("matrix: SigmoidInto length mismatch %d vs %d", len(dst), len(src)))
	}
	dst = dst[:len(src)]
	if useVector {
		for len(src) >= 4 {
			k := sigmoidAVX2(dst, src)
			dst, src = dst[k:], src[k:]
			if len(src) < 4 {
				break
			}
			// A lane of this block needs one of exp's special cases.
			sigmoidScalar(dst[:4], src[:4])
			dst, src = dst[4:], src[4:]
		}
	}
	sigmoidScalar(dst, src)
}

// sigmoidScalar is SigmoidInto's scalar loop, the vector path's reference.
func sigmoidScalar(dst, src []float64) {
	dst = dst[:len(src)]
	for i, z := range src {
		e := math.Exp(-math.Abs(z))
		num := 1.0
		if z < 0 {
			num = e
		}
		dst[i] = num / (1 + e)
	}
}

// TanhInto computes dst[i] = math.Tanh(src[i]) for every element, bit for
// bit on both paths; dst may alias src. It is the MLP's hidden-layer
// activation, run once over each mini-batch's batch × hidden block.
func TanhInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("matrix: TanhInto length mismatch %d vs %d", len(dst), len(src)))
	}
	if useVector {
		tanhAVX2(dst, src)
		k := len(src) &^ 3
		dst, src = dst[k:], src[k:]
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = math.Tanh(v)
	}
}

// LogInto computes dst[i] = math.Log(src[i]) for every element, bit for
// bit on both paths; dst may alias src. It is the log of a logistic
// loss pass, run once over the clamped probabilities of every tuple.
func LogInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("matrix: LogInto length mismatch %d vs %d", len(dst), len(src)))
	}
	dst = dst[:len(src)]
	if useVector {
		for len(src) >= 4 {
			k := logAVX2(dst, src)
			dst, src = dst[k:], src[k:]
			if len(src) < 4 {
				break
			}
			// A lane of this block is not a positive finite normal number.
			logScalar(dst[:4], src[:4])
			dst, src = dst[4:], src[4:]
		}
	}
	logScalar(dst, src)
}

// logScalar is LogInto's scalar loop, the vector path's reference.
func logScalar(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = math.Log(v)
	}
}

// LikelihoodInto computes l[i], the probability a logistic model that
// gives p[i] assigns to label y[i]: c = Clamp(p[i], 1e-12, 1-1e-12), so
// that its log stays finite, for a label of 1 (y[i] >= 0.5) and 1 - c
// otherwise. It stages a logistic loss's terms for LogInto, one tuple
// per lane on the vector path. l may alias p or y.
func LikelihoodInto(l, p, y []float64) {
	if len(p) != len(l) || len(y) != len(l) {
		panic(fmt.Sprintf("matrix: LikelihoodInto lengths l %d, p %d, y %d", len(l), len(p), len(y)))
	}
	if useVector {
		k := len(l) &^ 3
		likelihoodAVX2(l[:k], p, y)
		l, p, y = l[k:], p[k:], y[k:]
	}
	likelihoodScalar(l, p, y)
}

// likelihoodScalar is LikelihoodInto's scalar loop, the vector path's
// reference.
func likelihoodScalar(l, p, y []float64) {
	const eps = 1e-12
	p = p[:len(l)]
	y = y[:len(l)]
	for i, pi := range p {
		c := Clamp(pi, eps, 1-eps)
		if y[i] >= 0.5 {
			l[i] = c
		} else {
			l[i] = 1 - c
		}
	}
}

// AccumulateInto computes dst[j] += g·row[j] — the per-row gradient
// scatter of a linear model. Unlike Axpy it tolerates len(dst) > len(row)
// (the intercept slot rides at the end of the gradient vector).
func AccumulateInto(dst []float64, g float64, row []float64) {
	dst = dst[:len(row)]
	for j, v := range row {
		dst[j] += g * v
	}
}

// ScatterRows computes dst[j] += Σ_i g[i]·d[i][j] — the full gradient
// scatter of a linear model with per-tuple coefficients g. Each dst
// component accumulates its terms in ascending row order with a single
// chain, so the result is bit-identical to calling AccumulateInto once per
// row; the blocked path merely loads and stores each dst element once per
// four rows instead of once per row, and the vector path keeps sixteen
// columns' sums in registers across all rows. dst must have length d.Cols
// and g length d.Rows.
func (d *Dense) ScatterRows(dst, g []float64) {
	if len(g) != d.Rows || len(dst) != d.Cols {
		panic(fmt.Sprintf("matrix: ScatterRows dims %d×%d vs g %d, dst %d", d.Rows, d.Cols, len(g), len(dst)))
	}
	if d.Stride != d.Cols {
		for i, gi := range g {
			AccumulateInto(dst, gi, d.Row(i))
		}
		return
	}
	c := d.Cols
	data := d.Data[:d.Rows*c]
	g = g[:d.Rows]
	i := 0
	if useVector && c > 0 {
		i = vectorRows(len(g), c)
		if i > 0 {
			scatterAVX2(dst, g[:i], data, c)
		}
	} else {
		for ; i+4 <= len(g); i += 4 {
			off := i * c
			r0 := data[off+0*c : off+1*c]
			r1 := data[off+1*c : off+2*c]
			r2 := data[off+2*c : off+3*c]
			r3 := data[off+3*c : off+4*c]
			r0 = r0[:len(dst)]
			r1 = r1[:len(dst)]
			r2 = r2[:len(dst)]
			r3 = r3[:len(dst)]
			gs := g[i : i+4 : i+4]
			g0, g1, g2, g3 := gs[0], gs[1], gs[2], gs[3]
			for j := range dst {
				a := dst[j]
				a += g0 * r0[j]
				a += g1 * r1[j]
				a += g2 * r2[j]
				a += g3 * r3[j]
				dst[j] = a
			}
		}
	}
	tail := g[i:]
	for k, gi := range tail {
		off := (i + k) * c
		AccumulateInto(dst, gi, data[off:off+c])
	}
}

// vectorRows returns how many leading rows of a packed n×c matrix
// scatterAVX2 may take. It loads each row's last vector whole, reading up
// to three values past the row, so the rows where that read would pass
// the end of the matrix are left to ScatterRows's scalar tail.
func vectorRows(n, c int) int {
	end := (c + 3) &^ 3 // where a row's last vector ends
	switch {
	case end == c:
		return n
	case n*c < end:
		return 0
	}
	return (n*c-end)/c + 1
}

// ScatterAffine computes ScatterRows's sums into dst[:d.Cols] and
// dst[d.Cols] += Σ_i g[i] in ascending row order: the gradient scatter of
// a linear model whose intercept rides last, the adjoint of AffineInto.
// The intercept is the scatter of an implicit ones column, since 1·g[i]
// is g[i] exactly, and the vector path runs it as one: a lane of the
// augmented copy, whose rows hold a 1 after the features. dst must have
// length d.Cols+1 and g length d.Rows.
func (d *Design) ScatterAffine(dst, g []float64) {
	if len(g) != d.Rows || len(dst) != d.Cols+1 {
		panic(fmt.Sprintf("matrix: ScatterAffine dims %d×%d vs g %d, dst %d", d.Rows, d.Cols, len(g), len(dst)))
	}
	if d.aug != nil {
		scatterAVX2(dst, g, d.aug, augWidth(d.Cols))
		return
	}
	c := d.Cols
	d.Dense.ScatterRows(dst[:c], g)
	one := dst[c:][:1] // the intercept slot
	s := one[0]
	for _, gi := range g {
		s += gi
	}
	one[0] = s
}

// ResidualScatter computes each tuple's residual coefficient
// g[i] = w[i]·(p[i] − y[i]) / n — the difference, the product and the
// quotient rounded on their own, in that order; a nil w takes no product
// and an n of 1 no quotient, both of which would be exact — and then
// scatters them as ScatterAffine(dst, g) does: the residual pass and the
// gradient scatter every step of a gradient-based linear fit runs, with
// p the sigmoid of its z-pass. On the vector path the two passes run as
// one, four rows at a time: a block's residuals are computed and stored,
// then scattered, so the divides overlap the scatter's adds. p, y and a
// non-nil w must have g's length d.Rows, and dst length d.Cols+1; g may
// alias p.
func (d *Design) ResidualScatter(dst, g, w, p, y []float64, n float64) {
	if len(g) != d.Rows || len(dst) != d.Cols+1 {
		panic(fmt.Sprintf("matrix: ResidualScatter dims %d×%d vs g %d, dst %d", d.Rows, d.Cols, len(g), len(dst)))
	}
	if len(p) != len(g) || len(y) != len(g) || (w != nil && len(w) != len(g)) {
		panic(fmt.Sprintf("matrix: ResidualScatter lengths g %d, w %d, p %d, y %d", len(g), len(w), len(p), len(y)))
	}
	if d.aug == nil {
		residualScalar(g, w, p, y, n)
		d.ScatterAffine(dst, g)
		return
	}
	aw := augWidth(d.Cols)
	first := dst[:min(len(dst), 16)]
	k := len(g) &^ 3
	if k > 0 {
		residualScatterAVX2(first, g[:k], w, p, y, d.aug, n, aw, n != 1)
	}
	if k < len(g) {
		var wt []float64
		if w != nil {
			wt = w[k:]
		}
		residualScalar(g[k:], wt, p[k:], y[k:], n)
		scatterAVX2(first, g[k:], d.aug[k*aw:], aw)
	}
	if len(dst) > 16 {
		scatterAVX2(dst[16:], g, d.aug[16:], aw)
	}
}

// residualScalar computes g[i] = w[i]·(p[i] − y[i]) / n for every tuple,
// ResidualScatter's residual pass: the difference, the product and the
// quotient round on their own, in that order. A nil w takes no product,
// and an n of 1 no quotient (both would be exact).
func residualScalar(g, w, p, y []float64, n float64) {
	p = p[:len(g)]
	y = y[:len(g)]
	switch {
	case w != nil:
		w = w[:len(g)]
		for i, wi := range w {
			r := wi * (p[i] - y[i])
			if n != 1 {
				r /= n
			}
			g[i] = r
		}
	case n != 1:
		for i, pi := range p {
			g[i] = (pi - y[i]) / n
		}
	default:
		for i, pi := range p {
			g[i] = pi - y[i]
		}
	}
}
