package matrix

import "fmt"

// Dense is a row-major dense matrix over one flat backing array. It is
// the kernel-level layout of the data plane: every row is a stride-spaced
// subslice of the same allocation, so iterating rows walks memory
// sequentially (no per-row pointer chasing) and a whole matrix copies
// with a single memmove. Dense never allocates per element or per row
// after construction.
//
// The zero value is an empty matrix. Row views returned by Row alias the
// backing array.
type Dense struct {
	// Data is the flat backing array, row-major: element (i, j) lives at
	// Data[i*Stride+j]. Exposed for kernels that stream the whole matrix.
	Data []float64
	// Rows and Cols are the logical dimensions.
	Rows, Cols int
	// Stride is the index distance between vertically adjacent elements
	// (>= Cols; NewDense packs rows tightly, Stride == Cols).
	Stride int
}

// NewDense returns a zeroed r×c matrix with one flat allocation.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("matrix: NewDense(%d, %d): negative dimension", r, c))
	}
	return &Dense{Data: make([]float64, r*c), Rows: r, Cols: c, Stride: c}
}

// FromRows copies a [][]float64 into a freshly allocated Dense. Every row
// must have the same length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return &Dense{}
	}
	d := NewDense(len(rows), len(rows[0]))
	for i, row := range rows {
		if len(row) != d.Cols {
			panic(fmt.Sprintf("matrix: FromRows row %d has %d cols, want %d", i, len(row), d.Cols))
		}
		copy(d.Data[i*d.Stride:], row)
	}
	return d
}

// Row returns row i as a view into the backing array. Mutating the view
// mutates the matrix.
func (d *Dense) Row(i int) []float64 {
	off := i * d.Stride
	return d.Data[off : off+d.Cols : off+d.Cols]
}

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 { return d.Data[i*d.Stride+j] }

// Set assigns element (i, j).
func (d *Dense) Set(i, j int, v float64) { d.Data[i*d.Stride+j] = v }

// RowsView returns the matrix as a []-of-rows header whose rows alias the
// backing array — the bridge to [][]float64 APIs. The header slice is a
// fresh allocation; the row data is shared, and each row view is
// capacity-capped to its row as Row's is.
func (d *Dense) RowsView() [][]float64 {
	out := make([][]float64, d.Rows)
	for i := range out {
		out[i] = d.Row(i)
	}
	return out
}

// Design is a read-only training design matrix prepared for repeated
// z-passes and gradient scatters: the row-major matrix plus, on the
// vector path, a column-major copy of it (for AffineInto and SqDistInto)
// and an augmented row-major copy (for ScatterAffine). Build it once per
// fit with NewDesign; none of the copies may be mutated afterwards.
type Design struct {
	Dense
	cols []float64 // cols[j*Rows+i] = At(i, j); nil on the scalar path
	// aug holds row i at aug[i*w:], w = augWidth(Cols): the row's
	// features, a 1, then zeros to a whole number of vectors of four; nil
	// on the scalar path.
	aug []float64
}

// NewDesign prepares d for Design.AffineInto and ScatterAffine. On the
// vector path it makes the column-major and the augmented copies of d;
// elsewhere it only wraps d.
func NewDesign(d Dense) Design {
	out := Design{Dense: d}
	if useVector && d.Stride == d.Cols && d.Rows > 0 && d.Cols > 0 {
		out.cols = d.colMajor()
		out.aug = d.augmented()
	}
	return out
}

// augWidth is the row length of the augmented copy of a design with c
// columns: c features and the ones column, rounded up to whole vectors.
func augWidth(c int) int { return (c + 4) &^ 3 }

// augmented returns a tightly packed d's rows each followed by a 1 and
// zero padding, augWidth(d.Cols) elements per row.
func (d *Dense) augmented() []float64 {
	c, w := d.Cols, augWidth(d.Cols)
	out := make([]float64, d.Rows*w)
	for i := 0; i < d.Rows; i++ {
		row := out[i*w : i*w+w]
		copy(row, d.Data[i*c:i*c+c])
		row[c] = 1
	}
	return out
}

// colMajor returns a tightly packed d's elements in column-major order:
// element (i, j) at index j*d.Rows+i.
func (d *Dense) colMajor() []float64 {
	r, c := d.Rows, d.Cols
	out := make([]float64, r*c)
	for i := 0; i < r; i++ {
		for j, v := range d.Data[i*c : i*c+c] {
			out[j*r+i] = v
		}
	}
	return out
}
