package experiments

import (
	"reflect"
	"testing"

	"fairbench/internal/synth"
)

// stripTiming zeroes the wall-clock fields so row comparisons only see
// metrics — the quantities the runner's determinism contract covers.
func stripTiming(rows []Row) []Row {
	out := append([]Row(nil), rows...)
	for i := range out {
		out[i].Seconds, out[i].Overhead = 0, 0
	}
	return out
}

// runWorkers runs a freshly built grid on a pool of the given size.
func runWorkers(t *testing.T, g *Grid, workers int) *Output {
	t.Helper()
	g.SetWorkers(workers)
	out, err := g.RunAll()
	if err != nil {
		t.Fatalf("workers %d: %v", workers, err)
	}
	return out
}

// TestSerialParallelIdenticalRows is the tentpole's acceptance gate:
// parallel execution must reproduce the serial rows exactly (modulo
// timing) for a fixed seed, across seeds and worker counts.
func TestSerialParallelIdenticalRows(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		src := synth.German(200, seed)
		serial := runWorkers(t, fig7Grid(src, seed), 1).Rows
		for _, workers := range []int{2, 4, 8} {
			parallel := runWorkers(t, fig7Grid(src, seed), workers).Rows
			if !reflect.DeepEqual(stripTiming(serial), stripTiming(parallel)) {
				t.Fatalf("seed %d: parallel rows (workers=%d) diverge from serial", seed, workers)
			}
		}
	}
}

// TestSerialParallelIdenticalCV covers the aggregating driver, whose fold
// averages must also be bit-identical (summation order is fixed by the
// post-pass, not by job completion order).
func TestSerialParallelIdenticalCV(t *testing.T) {
	src := synth.German(300, 1)
	serial := runWorkers(t, cvGrid(src, 3, 1), 1).Rows
	parallel := runWorkers(t, cvGrid(src, 3, 1), 4).Rows
	if !reflect.DeepEqual(stripTiming(serial), stripTiming(parallel)) {
		t.Fatal("parallel CV rows diverge from serial")
	}
}

// TestSerialParallelIdenticalSensitivity covers a grid driver with a
// non-default classifier factory per cell.
func TestSerialParallelIdenticalSensitivity(t *testing.T) {
	src := synth.COMPAS(600, 1)
	approaches := []string{"Feld-DP", "KamKar-DP"}
	serial := runWorkers(t, sensitivityGrid(src, approaches, 1), 1).Sensitivity
	parallel := runWorkers(t, sensitivityGrid(src, approaches, 1), 4).Sensitivity
	if len(serial) != len(parallel) {
		t.Fatalf("row counts: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Approach != p.Approach || s.Model != p.Model ||
			s.Row.Correct != p.Row.Correct || s.Row.Fair != p.Row.Fair {
			t.Fatalf("cell %d (%s × %s) diverges between serial and parallel", i, s.Approach, s.Model)
		}
	}
}
