package classifier

import (
	"math"
	"testing"
	"testing/quick"

	"fairbench/internal/matrix"
	"fairbench/internal/rng"
)

// linearlySeparable generates a 2-D dataset split by the line x0 + x1 = 0.
func linearlySeparable(n int, seed int64) (matrix.Dense, []int) {
	g := rng.New(seed)
	x := matrix.NewDense(n, 2)
	y := make([]int, n)
	for i := range y {
		a, b := g.Normal(0, 1), g.Normal(0, 1)
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		if a+b > 0 {
			y[i] = 1
		}
	}
	return *x, y
}

// xorData generates the canonical non-linear XOR problem.
func xorData(n int, seed int64) (matrix.Dense, []int) {
	g := rng.New(seed)
	x := matrix.NewDense(n, 2)
	y := make([]int, n)
	for i := range y {
		a, b := g.Normal(0, 1), g.Normal(0, 1)
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		if (a > 0) != (b > 0) {
			y[i] = 1
		}
	}
	return *x, y
}

func accuracy(c Classifier, x matrix.Dense, y []int) float64 {
	correct := 0
	for i, label := range PredictAll(c, x) {
		if label == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(x.Rows)
}

func TestLogisticSeparable(t *testing.T) {
	x, y := linearlySeparable(500, 1)
	lr := NewLogistic()
	if err := lr.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(lr, x, y); acc < 0.95 {
		t.Fatalf("LR accuracy on separable data: %v", acc)
	}
}

func TestLogisticWeightsShiftDecision(t *testing.T) {
	// All-weight-on-positives must push predictions positive.
	x, y := linearlySeparable(300, 2)
	w := make([]float64, x.Rows)
	for i := range w {
		if y[i] == 1 {
			w[i] = 10
		} else {
			w[i] = 0.1
		}
	}
	lr := NewLogistic()
	if err := lr.Fit(x, y, w); err != nil {
		t.Fatal(err)
	}
	pos := 0
	for _, label := range PredictAll(lr, x) {
		pos += label
	}
	if float64(pos)/float64(x.Rows) < 0.5 {
		t.Fatal("positive-weighted LR should predict mostly positive")
	}
}

func TestLogisticErrors(t *testing.T) {
	lr := NewLogistic()
	if err := lr.Fit(matrix.Dense{}, nil, nil); err == nil {
		t.Fatal("empty fit must error")
	}
	one := *matrix.NewDense(1, 1)
	if err := lr.Fit(one, []int{1, 0}, nil); err == nil {
		t.Fatal("label mismatch must error")
	}
	if err := lr.Fit(one, []int{1}, []float64{1, 2}); err == nil {
		t.Fatal("weight mismatch must error")
	}
}

func TestSVMSeparable(t *testing.T) {
	x, y := linearlySeparable(500, 3)
	svm := NewSVM()
	if err := svm.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(svm, x, y); acc < 0.93 {
		t.Fatalf("SVM accuracy: %v", acc)
	}
}

func TestKNN(t *testing.T) {
	x := *matrix.FromRows([][]float64{{0, 0}, {0, 1}, {10, 10}, {10, 11}})
	y := []int{0, 0, 1, 1}
	k := &KNN{K: 2}
	if err := k.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if p := k.PredictProba([]float64{0, 0.5}); p != 0 {
		t.Fatalf("kNN near cluster 0: %v", p)
	}
	if p := k.PredictProba([]float64{10, 10.5}); p != 1 {
		t.Fatalf("kNN near cluster 1: %v", p)
	}
}

func TestTreeXOR(t *testing.T) {
	x, y := xorData(600, 4)
	tree := &DecisionTree{}
	if err := tree.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(tree, x, y); acc < 0.9 {
		t.Fatalf("tree accuracy on XOR: %v", acc)
	}
	if tree.Depth() < 2 {
		t.Fatalf("XOR needs depth >= 2, got %d", tree.Depth())
	}
}

func TestTreePureLeaf(t *testing.T) {
	x := *matrix.FromRows([][]float64{{1}, {2}, {3}})
	y := []int{1, 1, 1}
	tree := &DecisionTree{}
	if err := tree.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if p := tree.PredictProba([]float64{5}); p != 1 {
		t.Fatalf("pure leaf probability: %v", p)
	}
}

func TestForestXOR(t *testing.T) {
	x, y := xorData(600, 5)
	rf := NewForest()
	rf.Trees = 15
	if err := rf.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(rf, x, y); acc < 0.9 {
		t.Fatalf("forest accuracy on XOR: %v", acc)
	}
}

func TestMLPXOR(t *testing.T) {
	x, y := xorData(800, 6)
	mlp := NewMLP()
	mlp.Epochs = 150
	if err := mlp.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(mlp, x, y); acc < 0.85 {
		t.Fatalf("MLP accuracy on XOR: %v", acc)
	}
}

func TestProbaRange(t *testing.T) {
	x, y := linearlySeparable(200, 7)
	models := []Classifier{NewLogistic(), NewSVM(), &KNN{K: 5}, &DecisionTree{}, NewMLP()}
	for _, m := range models {
		if err := m.Fit(x, y, nil); err != nil {
			t.Fatalf("%T: %v", m, err)
		}
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		q := []float64{math.Mod(a, 10), math.Mod(b, 10)}
		for _, m := range models {
			p := m.PredictProba(q)
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPredictAllProbaAll(t *testing.T) {
	x, y := linearlySeparable(100, 8)
	lr := NewLogistic()
	if err := lr.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	preds := PredictAll(lr, x)
	probs := ProbaAll(lr, x)
	for i := range preds {
		want := 0
		if probs[i] >= 0.5 {
			want = 1
		}
		if preds[i] != want {
			t.Fatal("PredictAll inconsistent with ProbaAll")
		}
	}
}

func TestUnfittedDefaults(t *testing.T) {
	if (&KNN{}).PredictProba([]float64{1}) != 0.5 {
		t.Fatal("unfitted kNN should return 0.5")
	}
	if (&RandomForest{}).PredictProba([]float64{1}) != 0.5 {
		t.Fatal("unfitted forest should return 0.5")
	}
	if (&MLP{}).PredictProba([]float64{1}) != 0.5 {
		t.Fatal("unfitted MLP should return 0.5")
	}
}
