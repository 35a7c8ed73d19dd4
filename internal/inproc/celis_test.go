package inproc

import (
	"math"
	"math/rand"
	"testing"

	"fairbench/internal/classifier"
	"fairbench/internal/dataset"
)

// nestedThresholdSearch is the per-pair scan searchThresholds replaced,
// kept as its reference: for every (t0, t1) it relabels every tuple and
// counts errors, predicted positives and false discoveries from scratch.
func nestedThresholdSearch(proba []float64, s, y []int, steps int, tau float64) [2]float64 {
	bestErr := math.Inf(1)
	bestRatio := -1.0
	var best, fairest [2]float64
	best = [2]float64{0.5, 0.5}
	fairest = best
	n := float64(len(proba))
	for a := 1; a < steps; a++ {
		t0 := float64(a) / float64(steps)
		for b := 1; b < steps; b++ {
			t1 := float64(b) / float64(steps)
			var errs, pos0, pos1, fd0, fd1 float64
			for i := range proba {
				t := t0
				if s[i] == 1 {
					t = t1
				}
				pred := 0
				if proba[i] >= t {
					pred = 1
				}
				if pred != y[i] {
					errs++
				}
				if pred == 1 {
					if s[i] == 1 {
						pos1++
						if y[i] == 0 {
							fd1++
						}
					} else {
						pos0++
						if y[i] == 0 {
							fd0++
						}
					}
				}
			}
			if pos0 < 5 || pos1 < 5 {
				continue
			}
			q0, q1 := fd0/pos0, fd1/pos1
			lo, hi := math.Min(q0, q1), math.Max(q0, q1)
			ratio := 1.0
			if hi > 0 {
				ratio = lo / hi
			}
			if ratio > bestRatio {
				bestRatio = ratio
				fairest = [2]float64{t0, t1}
			}
			if ratio >= tau && errs/n < bestErr {
				bestErr = errs / n
				best = [2]float64{t0, t1}
			}
		}
	}
	if math.IsInf(bestErr, 1) {
		best = fairest
	}
	return best
}

// celisProba returns the training probabilities Celis.Fit searches over.
func celisProba(t *testing.T, train *dataset.Dataset) []float64 {
	t.Helper()
	b := linearBase{includeS: true}
	x := b.designMatrix(train)
	clf := classifier.NewLogistic()
	if err := clf.Fit(x, train.Y, train.Weights); err != nil {
		t.Fatal(err)
	}
	return classifier.ProbaAll(clf, x)
}

// TestThresholdSearchMatchesNestedLoop holds the tallied search to the
// per-pair scan: both keep exactly the same thresholds, on fitted
// probabilities of every dataset and on synthetic ones that sit on the
// grid, leave a group short of 5 predicted positives, or meet no tau.
func TestThresholdSearchMatchesNestedLoop(t *testing.T) {
	check := func(label string, proba []float64, s, y []int) {
		t.Helper()
		for _, steps := range []int{2, 3, 40} {
			// 0.8 is the default; 1.01 is met by no pair, so the search
			// falls back to the fairest one.
			for _, tau := range []float64{0, 0.5, 0.8, 1.01} {
				got := searchThresholds(proba, s, y, steps, tau)
				want := nestedThresholdSearch(proba, s, y, steps, tau)
				if got != want {
					t.Fatalf("%s, steps %d, tau %v: tallied search kept %v, nested loop %v", label, steps, tau, got, want)
				}
			}
		}
	}
	for _, src := range sources {
		for seed := int64(1); seed <= 3; seed++ {
			train := trainingSplit(src.gen, 1000, seed)
			check(src.name, celisProba(t, train), train.S, train.Y)
		}
	}
	g := rand.New(rand.NewSource(5))
	for round := 0; round < 200; round++ {
		n := 1 + g.Intn(60)
		proba, s, y := make([]float64, n), make([]int, n), make([]int, n)
		for i := range proba {
			// Multiples of 1/120 land on every grid's thresholds.
			proba[i] = float64(g.Intn(121)) / 120
			if round%2 == 1 {
				proba[i] = g.Float64()
			}
			y[i] = g.Intn(2)
			if g.Intn(round%5+2) == 0 { // some rounds leave group 1 only a few tuples
				s[i] = 1
			}
		}
		check("synthetic", proba, s, y)
	}
}

// fdrCounts returns each group's predicted positives and false
// discoveries under yhat.
func fdrCounts(d *dataset.Dataset, yhat []int) (pos, fd [2]float64) {
	for i, p := range yhat {
		if p == 1 {
			pos[d.S[i]]++
			if d.Y[i] == 0 {
				fd[d.S[i]]++
			}
		}
	}
	return pos, fd
}

// fdrRatio is predictive parity's min/max ratio of the two groups' false
// discovery rates, 1 when neither group has a false discovery.
func fdrRatio(pos, fd [2]float64) float64 {
	q0, q1 := fd[0]/pos[0], fd[1]/pos[1]
	if hi := math.Max(q0, q1); hi > 0 {
		return math.Min(q0, q1) / hi
	}
	return 1
}

// TestCelisContract holds each fit to the constraint Celis^pp enforces,
// on the data it was fit on: the kept thresholds give both groups at
// least 5 predicted positives and an FDR ratio of at least tau, or no
// pair of the grid does and the kept pair has the highest ratio, found
// here by the test's own enumeration of the grid.
func TestCelisContract(t *testing.T) {
	for _, src := range sources {
		for seed := int64(1); seed <= 3; seed++ {
			train := trainingSplit(src.gen, 1000, seed)
			c := NewCelis().(*Celis)
			yhat := fitPredict(t, c, train, train)
			pos, fd := fdrCounts(train, yhat)
			if pos[0] >= 5 && pos[1] >= 5 && fdrRatio(pos, fd) >= celisTau {
				continue
			}
			x := c.base.inputs(train, false)
			proba := make([]float64, x.Rows)
			c.clf.PredictProbaInto(proba, x)
			bestRatio := -1.0
			for a := 1; a < celisGridSteps; a++ {
				for b := 1; b < celisGridSteps; b++ {
					th := [2]float64{float64(a) / float64(celisGridSteps), float64(b) / float64(celisGridSteps)}
					labels := make([]int, len(proba))
					for i, p := range proba {
						if p >= th[train.S[i]] {
							labels[i] = 1
						}
					}
					gpos, gfd := fdrCounts(train, labels)
					if gpos[0] < 5 || gpos[1] < 5 {
						continue
					}
					r := fdrRatio(gpos, gfd)
					if r >= celisTau {
						t.Fatalf("%s seed %d: kept %v misses tau %v (positives %v, ratio %v), but %v meets it (ratio %v)",
							src.name, seed, c.threshold, celisTau, pos, fdrRatio(pos, fd), th, r)
					}
					bestRatio = math.Max(bestRatio, r)
				}
			}
			if pos[0] < 5 || pos[1] < 5 || fdrRatio(pos, fd) != bestRatio {
				t.Fatalf("%s seed %d: no pair meets tau %v, but kept %v (positives %v, ratio %v) is not the fairest (ratio %v)",
					src.name, seed, celisTau, c.threshold, pos, fdrRatio(pos, fd), bestRatio)
			}
		}
	}
}
