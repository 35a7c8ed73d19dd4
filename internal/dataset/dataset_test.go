package dataset

import (
	"math"
	"testing"
	"unsafe"

	"fairbench/internal/rng"
)

func toy(n int) *Dataset {
	d := &Dataset{
		Name: "toy",
		Attrs: []Attr{
			{Name: "a", Kind: Numeric},
			{Name: "b", Kind: Categorical, Card: 3},
		},
		SName: "S",
		YName: "Y",
	}
	for i := 0; i < n; i++ {
		d.X = append(d.X, []float64{float64(i), float64(i % 3)})
		d.S = append(d.S, i%2)
		d.Y = append(d.Y, (i/2)%2)
	}
	return d
}

func TestValidate(t *testing.T) {
	d := toy(10)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := toy(10)
	bad.S[3] = 2
	if bad.Validate() == nil {
		t.Fatal("non-binary S must fail validation")
	}
	bad2 := toy(10)
	bad2.Y = bad2.Y[:5]
	if bad2.Validate() == nil {
		t.Fatal("length mismatch must fail validation")
	}
}

func TestCloneDeep(t *testing.T) {
	d := toy(4)
	c := d.Clone()
	c.X[0][0] = 99
	c.Y[1] = 1 - c.Y[1]
	if d.X[0][0] == 99 || d.Y[1] == c.Y[1] {
		t.Fatal("Clone must deep-copy")
	}
}

func TestSubsetIsView(t *testing.T) {
	d := toy(6)
	s := d.Subset([]int{1, 3})
	if s.Len() != 2 || s.X[0][0] != 1 || s.X[1][0] != 3 {
		t.Fatalf("subset contents wrong: %+v", s.X)
	}
	// The view contract: subset rows alias the parent's storage (so
	// splits and folds are zero-copy), while S/Y stay independent.
	if &s.X[0][0] != &d.X[1][0] {
		t.Fatal("Subset rows must alias the parent (zero-copy view contract)")
	}
	s.Y[0] = 1 - s.Y[0]
	if d.Y[1] == s.Y[0] {
		t.Fatal("Subset must copy S/Y")
	}
	// Clone severs the alias — the sanctioned way to mutate a view.
	c := s.Clone()
	c.X[0][0] = 42
	if d.X[1][0] == 42 {
		t.Fatal("Clone of a view must not alias the parent")
	}
}

// contiguous reports whether every row of d's X starts where the
// previous row ends, in one backing array.
func contiguous(d *Dataset) bool {
	for i := 1; i < d.Len(); i++ {
		prev := d.X[i-1]
		if unsafe.Pointer(&d.X[i][0]) != unsafe.Add(unsafe.Pointer(&prev[0]), len(prev)*8) {
			return false
		}
	}
	return true
}

func TestNewFlatBacking(t *testing.T) {
	attrs := []Attr{{Name: "a", Kind: Numeric}, {Name: "b", Kind: Numeric}}
	d := NewFlat("flat", attrs, 4)
	if d.Len() != 4 || len(d.X[3]) != 2 || !contiguous(d) {
		t.Fatal("NewFlat rows must be contiguous views of one backing array")
	}
	// Clone rebuilds a contiguous backing even from scattered rows.
	if !contiguous(toy(3).Clone()) {
		t.Fatal("Clone must materialize a contiguous backing")
	}
}

func TestSplitPartition(t *testing.T) {
	d := toy(100)
	train, test := d.Split(0.7, rng.New(1))
	if train.Len()+test.Len() != 100 {
		t.Fatalf("split loses tuples: %d + %d", train.Len(), test.Len())
	}
	if train.Len() != 70 {
		t.Fatalf("train size: %d", train.Len())
	}
}

func TestKFoldPartition(t *testing.T) {
	d := toy(53)
	folds := d.KFold(5, rng.New(2))
	total := 0
	for _, f := range folds {
		total += f.Test.Len()
		if f.Train.Len()+f.Test.Len() != 53 {
			t.Fatal("fold does not partition")
		}
	}
	if total != 53 {
		t.Fatalf("test folds cover %d of 53", total)
	}
}

func TestBaseRates(t *testing.T) {
	d := toy(8) // S alternates, Y pattern 0,0,1,1,...
	u, p := d.BaseRates()
	if math.Abs(u-0.5) > 1e-12 || math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("base rates: %v %v", u, p)
	}
}

func TestWeights(t *testing.T) {
	d := toy(4)
	if d.Weight(0) != 1 || d.TotalWeight() != 4 {
		t.Fatal("unweighted defaults")
	}
	d.Weights = []float64{1, 2, 3, 4}
	if d.Weight(2) != 3 || d.TotalWeight() != 10 {
		t.Fatal("weighted accessors")
	}
}

func TestProjectAttrs(t *testing.T) {
	d := toy(5)
	p := d.ProjectAttrs([]int{1})
	if p.Dim() != 1 || p.Attrs[0].Name != "b" {
		t.Fatalf("projection: %+v", p.Attrs)
	}
	if p.X[4][0] != float64(4%3) {
		t.Fatalf("projected value: %v", p.X[4][0])
	}
}

func TestFeatureMatrix(t *testing.T) {
	d := toy(3)
	withS := d.FeatureMatrix(true)
	if withS.Rows != 3 || withS.Cols != 3 || withS.At(1, 2) != 1 || withS.At(2, 0) != 2 {
		t.Fatalf("S column missing: %v", withS.Row(1))
	}
	noS := d.FeatureMatrix(false)
	if noS.Cols != 2 || noS.Stride != 2 {
		t.Fatalf("unexpected shape: %d cols, stride %d", noS.Cols, noS.Stride)
	}
	noS.Set(2, 0, 99)
	if d.X[2][0] == 99 {
		t.Fatal("FeatureMatrix must copy, not alias, the rows")
	}
}

// TestInputsMirrorStandardizedDesign: a standardizer's Inputs over the
// data it was fitted on equals StandardizedDesign's rows bit for bit,
// with and without S; flipS flips only the S column; a transform sees
// the tuple's true group even when S is flipped.
func TestInputsMirrorStandardizedDesign(t *testing.T) {
	d := toy(9)
	for _, includeS := range []bool{false, true} {
		std, want := d.StandardizedDesign(includeS)
		got := std.Inputs(d, includeS, false, nil)
		flipped := std.Inputs(d, includeS, true, nil)
		for i := range want.Rows {
			w := want.Row(i)
			for j, v := range w {
				if math.Float64bits(got.At(i, j)) != math.Float64bits(v) {
					t.Fatalf("includeS=%v: Inputs[%d][%d] = %v, design %v", includeS, i, j, got.At(i, j), v)
				}
				fv := v
				if includeS && j == len(w)-1 {
					fv = 1 - v
				}
				if flipped.At(i, j) != fv {
					t.Fatalf("includeS=%v: flipped Inputs[%d][%d] = %v, want %v", includeS, i, j, flipped.At(i, j), fv)
				}
			}
		}
	}
	std := FitStandardizer(d)
	shift := func(x []float64, s int) []float64 { return []float64{x[0] + 100*float64(s), x[1]} }
	x := std.Inputs(d, true, true, shift)
	for i := range d.X {
		r := shift(d.X[i], d.S[i])
		std.ApplyRow(r)
		if x.At(i, 0) != r[0] || x.At(i, 2) != float64(1-d.S[i]) {
			t.Fatalf("row %d: %v, want transform at the true group %v with S flipped", i, x.Row(i), r)
		}
	}
}

func TestResampleWeighted(t *testing.T) {
	d := toy(10)
	w := make([]float64, 10)
	w[7] = 1 // all mass on tuple 7
	r := d.ResampleWeighted(w, 5, rng.New(3))
	for i := 0; i < r.Len(); i++ {
		if r.X[i][0] != 7 {
			t.Fatal("weighted resampling ignored weights")
		}
	}
}

func TestStandardizer(t *testing.T) {
	d := toy(50)
	std, x := d.StandardizedDesign(false)
	col := make([]float64, x.Rows)
	for i := range col {
		col[i] = x.At(i, 0)
	}
	var mean, sq float64
	for _, v := range col {
		mean += v
	}
	mean /= float64(len(col))
	for _, v := range col {
		sq += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(sq / float64(len(col)))
	if math.Abs(mean) > 1e-9 || math.Abs(sd-1) > 1e-9 {
		t.Fatalf("standardized column: mean %v std %v", mean, sd)
	}
	// Categorical column untouched, and d itself too.
	if x.At(4, 1) != d.X[4][1] || d.X[4][0] != 4 {
		t.Fatal("categorical column and the dataset must not be standardized")
	}
	// ApplyRow matches the design.
	row := append([]float64(nil), d.X[7]...)
	std.ApplyRow(row)
	if math.Abs(row[0]-x.At(7, 0)) > 1e-12 {
		t.Fatal("ApplyRow disagrees with StandardizedDesign")
	}
}

func TestDiscretizer(t *testing.T) {
	d := toy(90)
	disc := FitDiscretizer(d, 3)
	if disc.Cardinality(1) != 3 {
		t.Fatalf("categorical cardinality: %d", disc.Cardinality(1))
	}
	// Bins must be monotone in the value.
	prev := -1
	for v := 0.0; v < 90; v += 10 {
		b := disc.Bin(0, v)
		if b < prev {
			t.Fatalf("bins not monotone at %v", v)
		}
		prev = b
	}
	if disc.Bin(0, -100) != 0 {
		t.Fatal("below-range value must land in bin 0")
	}
	code, total := disc.Code(d.X[10], []int{0, 1})
	if code < 0 || code >= total {
		t.Fatalf("code %d outside [0,%d)", code, total)
	}
}

func TestGroupIndices(t *testing.T) {
	d := toy(10)
	u, p := d.GroupIndices()
	if len(u) != 5 || len(p) != 5 {
		t.Fatalf("groups: %d/%d", len(u), len(p))
	}
	for _, i := range p {
		if d.S[i] != 1 {
			t.Fatal("privileged index with S=0")
		}
	}
}
