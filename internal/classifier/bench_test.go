package classifier

import (
	"testing"

	"fairbench/internal/rng"
	"fairbench/internal/synth"
)

// BenchmarkMLPFit times one MLP fit at the paper's configuration on
// fig10-cold's training split: Adult n=1000, seed 7, the 70% split,
// standardized as the sensitivity grid's cells fit it (700 rows by 9
// features).
func BenchmarkMLPFit(b *testing.B) {
	train, _ := synth.Adult(1000, 7).Data.Split(0.7, rng.New(7))
	_, x := train.StandardizedDesign(false)
	if x.Rows != 700 || x.Cols != 9 {
		b.Fatalf("training split is %d × %d, want 700 × 9", x.Rows, x.Cols)
	}
	for b.Loop() {
		if err := NewMLP().Fit(x, train.Y, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKNNQueries answers fig10-cold's 300 test queries against its
// 700 × 10 training split at the paper's k = 33, one row at a time and
// as one block.
func BenchmarkKNNQueries(b *testing.B) {
	train, test := synth.Adult(1000, 7).Data.Split(0.7, rng.New(7))
	std, x := train.StandardizedDesign(true)
	q := std.Inputs(test, true, false, nil)
	k := NewKNN()
	if err := k.Fit(x, train.Y, nil); err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, q.Rows)
	b.Run("rows", func(b *testing.B) {
		for b.Loop() {
			for i := range dst {
				dst[i] = k.PredictProba(q.Row(i))
			}
		}
	})
	b.Run("block", func(b *testing.B) {
		for b.Loop() {
			k.PredictProbaInto(dst, q)
		}
	})
}
