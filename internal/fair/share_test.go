package fair

import (
	"sync"
	"sync/atomic"
	"testing"

	"fairbench/internal/dataset"
)

// countingRepairer shifts every feature of the unprivileged group, in
// training and test data alike, and counts its Repair calls. Like Feld
// and Calmon it transforms test rows through reused scratch, so two
// cells transforming through one instance at once would race.
type countingRepairer struct {
	calls   *atomic.Int32
	shift   float64
	scratch []float64
}

func (c *countingRepairer) Repair(d *dataset.Dataset) (*dataset.Dataset, error) {
	c.calls.Add(1)
	c.shift = 0.75
	out := d.Clone()
	for i, row := range out.X {
		if out.S[i] == 0 {
			for j := range row {
				row[j] += c.shift
			}
		}
	}
	return out, nil
}

func (c *countingRepairer) TransformRow(x []float64, s int) []float64 {
	out := append(c.scratch[:0], x...)
	c.scratch = out[:0]
	if s == 0 {
		for j := range out {
			out[j] += c.shift
		}
	}
	return out
}

func (c *countingRepairer) Fork() TestTransformer {
	f := *c
	f.scratch = nil
	return &f
}

// sweepModels are the five model families of the Figure 10 sweep.
var sweepModels = []string{"LR", "SVM", "kNN", "RF", "MLP"}

// countingCells returns one pre-processing cell per model, identical but
// for the model, all counting repairs in calls.
func countingCells(models []string, calls *atomic.Int32) []*PreProcessed {
	cells := make([]*PreProcessed, len(models))
	for i, m := range models {
		cells[i] = &PreProcessed{
			ApproachName: "Counting",
			Mechanism:    &countingRepairer{calls: calls},
			Model:        m,
			IncludeS:     true,
		}
	}
	return cells
}

// fitAndPredict fits every cell on train and predicts test, all cells
// concurrently, and returns each cell's predictions.
func fitAndPredict(t *testing.T, cells []*PreProcessed, train, test *dataset.Dataset) [][]int {
	t.Helper()
	preds := make([][]int, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = c.Fit(train); errs[i] == nil {
				preds[i], errs[i] = c.Predict(test)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %s: %v", cells[i].Model, err)
		}
	}
	return preds
}

func TestModelSweepSharesOneRepair(t *testing.T) {
	train, test := split(t)
	var alone atomic.Int32
	want := make([][]int, len(sweepModels))
	for i, c := range countingCells(sweepModels, &alone) {
		if err := c.Fit(train); err != nil {
			t.Fatal(err)
		}
		want[i], _ = c.Predict(test)
	}

	sweep := train.Clone()
	sweep.EnableBatchCache()
	var calls atomic.Int32
	got := fitAndPredict(t, countingCells(sweepModels, &calls), sweep, test)
	if n := calls.Load(); n != 1 {
		t.Fatalf("five model cells of one approach repaired %d times, want once", n)
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: shared repair predicts %d for tuple %d, unarmed fit %d",
					sweepModels[i], got[i][j], j, want[i][j])
			}
		}
	}
}

// TestMetricGridKeepsNoRepair: a metric grid arms nothing, so cells
// fitting on its split at once each repair for themselves.
func TestMetricGridKeepsNoRepair(t *testing.T) {
	train, test := split(t)
	var calls atomic.Int32
	fitAndPredict(t, countingCells([]string{"LR", "SVM"}, &calls), train, test)
	if n := calls.Load(); n != 2 {
		t.Fatalf("two cells on a metric-grid split repaired %d times, want once each", n)
	}
}
