package dataset_test

import (
	"fmt"
	"math"
	"testing"

	"fairbench/internal/dataset"
	"fairbench/internal/rng"
	"fairbench/internal/synth"
)

// TestStandardizedDesignMatchesReference holds StandardizedDesign to the
// clone → standardize in place → FeatureMatrix pipeline it replaced, bit
// for bit, with and without S: on the toy set, and on every benchmark
// dataset at n=1000 and seeds 1–3, both whole (rows in one backing) and
// as its 70% training split (rows scattered over the parent's backing).
func TestStandardizedDesignMatchesReference(t *testing.T) {
	type namedSet struct {
		name string
		d    *dataset.Dataset
	}
	sets := []namedSet{{"toy", dataset.Toy(50)}}
	for _, src := range []struct {
		name string
		gen  func(int, int64) *synth.Source
	}{{"adult", synth.Adult}, {"compas", synth.COMPAS}, {"german", synth.German}} {
		for seed := int64(1); seed <= 3; seed++ {
			whole := src.gen(1000, seed).Data
			train, _ := whole.Split(0.7, rng.New(seed))
			sets = append(sets,
				namedSet{fmt.Sprintf("%s seed %d", src.name, seed), whole},
				namedSet{fmt.Sprintf("%s seed %d training split", src.name, seed), train})
		}
	}
	for _, set := range sets {
		for _, includeS := range []bool{false, true} {
			_, got := set.d.StandardizedDesign(includeS)
			want := dataset.ReferenceDesign(set.d, includeS)
			if got.Rows != want.Rows || got.Cols != want.Cols || got.Stride != want.Stride {
				t.Fatalf("%s, includeS=%v: %d×%d (stride %d), reference %d×%d (stride %d)",
					set.name, includeS, got.Rows, got.Cols, got.Stride, want.Rows, want.Cols, want.Stride)
			}
			for i := range want.Rows {
				for j := range want.Cols {
					if a, b := got.At(i, j), want.At(i, j); math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("%s, includeS=%v: design[%d][%d] = %v, reference %v", set.name, includeS, i, j, a, b)
					}
				}
			}
		}
	}
}
