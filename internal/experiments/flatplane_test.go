package experiments

import (
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"

	"fairbench/internal/synth"
)

// TestViewSlicesMatchMaterialized proves the flat data plane's central
// bit-identity claim: a grid whose train/test slices are zero-copy views
// into the synthesized dataset's flat backing produces byte-identical
// rows to the same grid with every slice deep-copied into its own
// storage. Together with the golden-row suite (which pins the view-based
// path to the pre-refactor numbers) this is the byte-equivalence oracle
// for the zero-copy view contract.
func TestViewSlicesMatchMaterialized(t *testing.T) {
	src, err := sourceFor("german", 240, 7)
	if err != nil {
		t.Fatal(err)
	}

	viewGrid := fig7Grid(src, 7)
	matGrid := fig7Grid(src, 7)
	for i := range matGrid.slices {
		matGrid.slices[i].train = matGrid.slices[i].train.Clone()
		matGrid.slices[i].test = matGrid.slices[i].test.Clone()
	}

	viewOut, err := viewGrid.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	matOut, err := matGrid.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(viewOut.Rows) == 0 || len(viewOut.Rows) != len(matOut.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(viewOut.Rows), len(matOut.Rows))
	}
	for i := range viewOut.Rows {
		a, b := viewOut.Rows[i], matOut.Rows[i]
		a.Seconds, a.Overhead = 0, 0 // wall time is the sanctioned nondeterminism
		b.Seconds, b.Overhead = 0, 0
		aj, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		bj, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if string(aj) != string(bj) {
			t.Fatalf("row %d diverges between view-backed and materialized slices:\n  view: %s\n  mat:  %s", i, aj, bj)
		}
	}
}

// TestSourceMemoReturnsSharedMaterialization pins the per-run synthesis
// memo: repeated sourceFor calls for one (dataset, n, seed) return the
// same Source (no re-synthesis), and distinct keys stay distinct.
func TestSourceMemoReturnsSharedMaterialization(t *testing.T) {
	a, err := sourceFor("compas", 200, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sourceFor("compas", 200, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("sourceFor re-synthesized a memoized (dataset, n, seed)")
	}
	c, err := sourceFor("compas", 200, 12)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("sourceFor conflated distinct seeds")
	}
}

// memoLen returns how many sources the memo holds.
func memoLen() int {
	sourceMemo.mu.Lock()
	defer sourceMemo.mu.Unlock()
	return len(sourceMemo.entries)
}

// TestSourceMemoBounded: a process that opens ever more seeds keeps at
// most sourceMemoCap sources resident.
func TestSourceMemoBounded(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		if _, err := sourceFor("german", 60, 1000+seed); err != nil {
			t.Fatal(err)
		}
		if n := memoLen(); n > sourceMemoCap {
			t.Fatalf("after %d distinct seeds the memo holds %d sources, cap %d", seed+1, n, sourceMemoCap)
		}
	}
}

// TestSourceMemoConcurrentOpensShare: concurrent Opens of one spec share
// one materialization (run under -race in CI).
func TestSourceMemoConcurrentOpensShare(t *testing.T) {
	const workers = 8
	srcs := make([]*synth.Source, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src, err := sourceFor("german", 90, 424242)
			if err != nil {
				t.Error(err)
				return
			}
			srcs[w] = src
		}(w)
	}
	wg.Wait()
	for w, src := range srcs {
		if src == nil || src != srcs[0] {
			t.Fatalf("worker %d got source %p, worker 0 got %p: concurrent Opens must share one materialization", w, src, srcs[0])
		}
	}
}

// TestSourceMemoReopenAfterEviction: a source evicted from the memo is
// re-synthesized bit for bit.
func TestSourceMemoReopenAfterEviction(t *testing.T) {
	a, err := sourceFor("compas", 120, 77)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < sourceMemoCap; seed++ {
		if _, err := sourceFor("german", 60, 5000+seed); err != nil {
			t.Fatal(err)
		}
	}
	b, err := sourceFor("compas", 120, 77)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("source survived sourceMemoCap newer Opens: the memo is not evicting")
	}
	da, db := a.Data, b.Data
	if da.Len() != db.Len() || !reflect.DeepEqual(da.Y, db.Y) || !reflect.DeepEqual(da.S, db.S) ||
		!reflect.DeepEqual(da.Attrs, db.Attrs) || !reflect.DeepEqual(a.Graph, b.Graph) {
		t.Fatal("re-synthesized source differs in labels, groups, attributes or graph")
	}
	for i := range da.X {
		for j, v := range da.X[i] {
			if math.Float64bits(v) != math.Float64bits(db.X[i][j]) {
				t.Fatalf("re-synthesized X[%d][%d] = %v, first synthesis %v", i, j, db.X[i][j], v)
			}
		}
	}
}
