package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(x); m != 5 {
		t.Fatalf("mean: %v", m)
	}
	if v := Variance(x); math.Abs(v-32.0/7) > 1e-12 {
		t.Fatalf("variance: %v", v)
	}
	if Variance([]float64{1}) != 0 {
		t.Fatal("singleton variance must be 0")
	}
}

func TestQuantile(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := QuantileSorted(x, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("quantile %v: got %v want %v", c.q, got, c.want)
		}
	}
	if QuantileSorted(nil, 0.5) != 0 {
		t.Fatal("empty quantile must be 0")
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(raw [16]float64, a, b float64) bool {
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if math.IsNaN(qa) || math.IsNaN(qb) {
			return true
		}
		if qa > qb {
			qa, qb = qb, qa
		}
		x := raw[:]
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		sort.Float64s(x)
		return QuantileSorted(x, qa) <= QuantileSorted(x, qb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRank(t *testing.T) {
	s := []float64{1, 2, 2, 3}
	if r := Rank(s, 2); r != 0.75 {
		t.Fatalf("rank of 2: %v", r)
	}
	if r := Rank(s, 0); r != 0 {
		t.Fatalf("rank below min: %v", r)
	}
	if r := Rank(s, 5); r != 1 {
		t.Fatalf("rank above max: %v", r)
	}
}

func TestHoeffdingUpper(t *testing.T) {
	// Bound must exceed the mean and shrink with n.
	b1 := HoeffdingUpper(0.1, 100, 0, 1, 0.05)
	b2 := HoeffdingUpper(0.1, 10000, 0, 1, 0.05)
	if b1 <= 0.1 || b2 <= 0.1 {
		t.Fatal("bound must exceed the mean")
	}
	if b2 >= b1 {
		t.Fatal("bound must tighten with n")
	}
	if !math.IsInf(HoeffdingUpper(0, 0, 0, 1, 0.05), 1) {
		t.Fatal("n=0 must give +Inf")
	}
}

func TestConfusion(t *testing.T) {
	y := []int{1, 1, 0, 0, 1}
	yhat := []int{1, 0, 0, 1, 1}
	c := Count(y, yhat)
	if c.TP != 2 || c.FN != 1 || c.TN != 1 || c.FP != 1 {
		t.Fatalf("confusion: %+v", c)
	}
	if c.N() != 5 {
		t.Fatalf("N: %d", c.N())
	}
	if math.Abs(c.TPR()-2.0/3) > 1e-12 {
		t.Fatalf("TPR: %v", c.TPR())
	}
	if math.Abs(c.TNR()-0.5) > 1e-12 {
		t.Fatalf("TNR: %v", c.TNR())
	}
	var empty Confusion
	if empty.TPR() != 0 || empty.TNR() != 0 {
		t.Fatal("empty confusion rates must be 0")
	}
}
