package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestDeriveDeterminism(t *testing.T) {
	a, b := Derive(42, 7), Derive(42, 7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same (seed, id) produced different streams")
		}
	}
}

func TestDeriveStreamIndependence(t *testing.T) {
	// Adjacent job ids — the layout every runner.Run call produces — must
	// yield uncorrelated streams, unlike naive New(seed+id) seeding.
	const draws = 200
	streams := make([][]float64, 8)
	for id := range streams {
		g := Derive(1, int64(id))
		for i := 0; i < draws; i++ {
			streams[id] = append(streams[id], g.Float64())
		}
	}
	for i := range streams {
		for j := i + 1; j < len(streams); j++ {
			same := 0
			for k := 0; k < draws; k++ {
				if streams[i][k] == streams[j][k] {
					same++
				}
			}
			if same > 5 {
				t.Fatalf("Derive(1,%d) and Derive(1,%d) look correlated: %d identical draws", i, j, same)
			}
		}
	}
}

func TestDeriveDiffersFromBaseSeed(t *testing.T) {
	base, derived := New(5), Derive(5, 0)
	same := 0
	for i := 0; i < 100; i++ {
		if base.Float64() == derived.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("Derive(seed, 0) replays New(seed): %d identical draws", same)
	}
}

func TestBernoulli(t *testing.T) {
	g := New(7)
	n := 20000
	sum := 0
	for i := 0; i < n; i++ {
		sum += g.Bernoulli(0.3)
	}
	p := float64(sum) / float64(n)
	if math.Abs(p-0.3) > 0.02 {
		t.Fatalf("Bernoulli(0.3) frequency %v", p)
	}
}

func TestNormalMoments(t *testing.T) {
	g := New(5)
	n := 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := g.Normal(2, 3)
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sq/float64(n) - mean*mean)
	if math.Abs(mean-2) > 0.1 || math.Abs(std-3) > 0.1 {
		t.Fatalf("Normal(2,3): mean %v std %v", mean, std)
	}
}

func TestCategorical(t *testing.T) {
	g := New(3)
	w := []float64{1, 3, 6}
	counts := make([]int, 3)
	n := 30000
	for i := 0; i < n; i++ {
		counts[g.Categorical(w)]++
	}
	for i, want := range []float64{0.1, 0.3, 0.6} {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("Categorical weight %d: got %v want %v", i, got, want)
		}
	}
	if g.Categorical([]float64{0, 0}) != 0 {
		t.Fatal("zero-weight Categorical should return 0")
	}
}

func TestPoissonMean(t *testing.T) {
	g := New(11)
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(g.Poisson(2.5))
	}
	mean := sum / float64(n)
	if math.Abs(mean-2.5) > 0.1 {
		t.Fatalf("Poisson(2.5) mean %v", mean)
	}
	if g.Poisson(0) != 0 {
		t.Fatal("Poisson(0) must be 0")
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	g := New(9)
	idx := g.SampleWithoutReplacement(10, 5)
	if len(idx) != 5 {
		t.Fatalf("want 5 samples, got %d", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if seen[i] {
			t.Fatal("duplicate index in without-replacement sample")
		}
		seen[i] = true
		if i < 0 || i >= 10 {
			t.Fatalf("index %d out of range", i)
		}
	}
	all := g.SampleWithoutReplacement(4, 10)
	if len(all) != 4 {
		t.Fatalf("oversampling should cap at n, got %d", len(all))
	}
}

func TestSampleWeighted(t *testing.T) {
	g := New(13)
	idx := g.SampleWeighted([]float64{0, 1}, 100)
	for _, i := range idx {
		if i != 1 {
			t.Fatal("zero-weight index sampled")
		}
	}
}
