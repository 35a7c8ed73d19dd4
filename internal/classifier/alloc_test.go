package classifier

import (
	"sync"
	"testing"

	"fairbench/internal/matrix"
)

// TestFitLeavesReceiverConfigUntouched pins the defaults-into-locals
// contract: Fit must not write resolved defaults (or anything else) back
// into the receiver's configuration fields, so a zero-value model is
// reusable and two goroutines may Fit models built from one shared
// factory without racing on field writes.
func TestFitLeavesReceiverConfigUntouched(t *testing.T) {
	x, y := linearlySeparable(60, 5)
	xor, xy := xorData(60, 5)

	lr := &LogisticRegression{}
	if err := lr.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if lr.MaxIter != 0 || lr.Step != 0 || lr.L2 != 0 {
		t.Fatalf("LogisticRegression.Fit mutated config: %+v", lr)
	}

	svm := &LinearSVM{}
	if err := svm.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if svm.Lambda != 0 || svm.Epochs != 0 {
		t.Fatalf("LinearSVM.Fit mutated config: %+v", svm)
	}

	mlp := &MLP{}
	if err := mlp.Fit(xor, xy, nil); err != nil {
		t.Fatal(err)
	}
	if mlp.Hidden != 0 || mlp.Epochs != 0 || mlp.Step != 0 || mlp.Batch != 0 {
		t.Fatalf("MLP.Fit mutated config: %+v", mlp)
	}
	if mlp.PredictProba(xor.Row(0)) == 0.5 && mlp.PredictProba(xor.Row(1)) == 0.5 {
		t.Fatal("zero-value MLP must still predict with resolved defaults")
	}

	knn := &KNN{}
	if err := knn.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if knn.K != 0 {
		t.Fatalf("KNN.Fit mutated config: %+v", knn)
	}
	if p := knn.PredictProba(x.Row(0)); p < 0 || p > 1 {
		t.Fatalf("zero-value kNN prediction out of range: %v", p)
	}

	tree := &DecisionTree{}
	if err := tree.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if tree.MaxDepth != 0 || tree.MinLeaf != 0 {
		t.Fatalf("DecisionTree.Fit mutated config: %+v", tree)
	}

	rf := &RandomForest{}
	if err := rf.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if rf.Trees != 0 || rf.MaxDepth != 0 {
		t.Fatalf("RandomForest.Fit mutated config: %+v", rf)
	}
}

// TestConcurrentFitSharedBacking trains every model family concurrently
// on the SAME design matrix — the zero-copy sharing pattern the grid
// runner relies on when cells split one memoized dataset into views.
// Run under -race (CI does), this pins that training only reads shared
// rows.
func TestConcurrentFitSharedBacking(t *testing.T) {
	x, y := linearlySeparable(120, 9)
	factories := []func() Classifier{
		func() Classifier { return NewLogistic() },
		func() Classifier { return NewSVM() },
		func() Classifier { return NewKNN() },
		func() Classifier { return &DecisionTree{} },
		func() Classifier { return NewMLP() },
	}
	var wg sync.WaitGroup
	errs := make([]error, len(factories)*2)
	for k := 0; k < len(errs); k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := factories[k%len(factories)]()
			if err := c.Fit(x, y, nil); err != nil {
				errs[k] = err
				return
			}
			c.PredictProba(x.Row(0))
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestFitAllocationBounds pins the allocation-free hot loops: a logistic
// fit allocates a fixed handful of buffers (Adam state, weight vector)
// regardless of MaxIter — per-iteration allocations are zero.
func TestFitAllocationBounds(t *testing.T) {
	x, y := linearlySeparable(200, 3)
	long := testing.AllocsPerRun(3, func() {
		lr := &LogisticRegression{MaxIter: 64}
		if err := lr.Fit(x, y, nil); err != nil {
			t.Fatal(err)
		}
	})
	short := testing.AllocsPerRun(3, func() {
		lr := &LogisticRegression{MaxIter: 1}
		if err := lr.Fit(x, y, nil); err != nil {
			t.Fatal(err)
		}
	})
	if long != short {
		t.Fatalf("logreg fit allocates per iteration: %v allocs at 64 iters vs %v at 1 (one Adam step must be allocation-free)", long, short)
	}
	if long > 16 {
		t.Fatalf("logreg fit allocates too much: %v allocs (want <= 16 fixed buffers)", long)
	}
}

// TestEpochFitAllocationBounds pins the MLP and SVM training loops: each
// fit allocates its weights and scratch once, so its allocation count is
// the same at 1, 8 and 64 epochs and stays under a fixed bound.
func TestEpochFitAllocationBounds(t *testing.T) {
	x, y := linearlySeparable(200, 3)
	for _, tc := range []struct {
		name  string
		model func(epochs int) Classifier
		bound float64
	}{
		{"mlp", func(e int) Classifier { return &MLP{Epochs: e} }, 16},
		{"svm", func(e int) Classifier { return &LinearSVM{Epochs: e} }, 8},
	} {
		var counts []float64
		for _, epochs := range []int{1, 8, 64} {
			counts = append(counts, testing.AllocsPerRun(3, func() {
				if err := tc.model(epochs).Fit(x, y, nil); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if counts[0] != counts[1] || counts[1] != counts[2] {
			t.Fatalf("%s fit allocates per epoch: %v allocs at 1, 8 and 64 epochs", tc.name, counts)
		}
		if counts[0] > tc.bound {
			t.Fatalf("%s fit allocates %v times, want <= %v", tc.name, counts[0], tc.bound)
		}
	}
}

// TestForestFitAllocationBounds pins the presorted grower's allocations:
// a forest fit allocates its per-forest buffers (columns, presorted
// lists, scratch) once, and per tree only the tree's generator and its
// exact-size node array — no node sorts or allocates.
func TestForestFitAllocationBounds(t *testing.T) {
	x, y := xorData(500, 2)
	fit := func(trees int) float64 {
		return testing.AllocsPerRun(3, func() {
			rf := &RandomForest{Trees: trees}
			if err := rf.Fit(x, y, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	ten, twenty := fit(10), fit(20)
	if perTree := (twenty - ten) / 10; perTree > 4 {
		t.Fatalf("forest fit allocates %v times per tree, want <= 4 (generator + node array)", perTree)
	}
	if ten > 80 {
		t.Fatalf("10-tree forest fit allocates %v times, want <= 80", ten)
	}
}

// TestKNNPredictAllocatesNothing: a kNN query keeps its k candidates in
// a typed heap on the stack, so at the paper's k = 33 it allocates
// nothing.
func TestKNNPredictAllocatesNothing(t *testing.T) {
	x, y := linearlySeparable(500, 3)
	k := NewKNN()
	if err := k.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { k.PredictProba(x.Row(7)) }); allocs != 0 {
		t.Fatalf("kNN PredictProba allocates %v times per query, want 0", allocs)
	}
}

// TestKNNBlockAllocationsConstant: a block query allocates its distance
// buffer and its heap once, whatever its row count.
func TestKNNBlockAllocationsConstant(t *testing.T) {
	x, y := linearlySeparable(500, 3)
	k := NewKNN()
	if err := k.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	block := func(rows int) float64 {
		q := matrix.Dense{Data: x.Data[:rows*x.Cols], Rows: rows, Cols: x.Cols, Stride: x.Cols}
		dst := make([]float64, rows)
		return testing.AllocsPerRun(5, func() { k.PredictProbaInto(dst, q) })
	}
	one, many := block(1), block(300)
	if one != many || many > 2 {
		t.Fatalf("kNN block allocates %v times for 1 row and %v for 300, want the same count, at most 2", one, many)
	}
}
