package matrix

import "testing"

func TestDenseRowViews(t *testing.T) {
	d := NewDense(3, 2)
	d.Set(1, 1, 5)
	if d.At(1, 1) != 5 || d.Data[3] != 5 {
		t.Fatalf("Set/At disagree with flat layout: %v", d.Data)
	}
	r := d.Row(1)
	r[0] = 7
	if d.At(1, 0) != 7 {
		t.Fatal("Row must be a view into the backing array")
	}
	if cap(r) != 2 {
		t.Fatalf("Row view must be capacity-capped to its row, cap=%d", cap(r))
	}
	v := d.RowsView()
	v[2][1] = 9
	if d.At(2, 1) != 9 {
		t.Fatal("RowsView rows must alias the backing array")
	}
}

func TestDenseFromRowsClone(t *testing.T) {
	src := [][]float64{{1, 2}, {3, 4}}
	d := FromRows(src)
	if d.Rows != 2 || d.Cols != 2 || d.At(1, 0) != 3 {
		t.Fatalf("FromRows: %+v", d)
	}
	src[0][0] = 99
	if d.At(0, 0) != 1 {
		t.Fatal("FromRows must copy")
	}
}

func TestDensePanicsOnBadDims(t *testing.T) {
	for name, build := range map[string]func(){
		"negative dimension": func() { NewDense(-1, 2) },
		"ragged rows":        func() { FromRows([][]float64{{1, 2}, {3}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: want a panic", name)
				}
			}()
			build()
		}()
	}
}
