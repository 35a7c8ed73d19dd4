package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fairbench/internal/synth"
)

// -update regenerates the golden files instead of comparing against them:
//
//	go test ./internal/experiments -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden testdata files")

// TestGoldenRowsCOMPAS pins every metric of the Figure 7 driver on a
// small COMPAS slice at seed 42 to a checked-in file, byte for byte. Any
// refactor that silently shifts a numeric result — a reordered float
// summation, a changed RNG derivation, an off-by-one in a split — fails
// here with a precise diff, which is the guard the sharding layer (and
// every future layer) builds on: fairness conclusions are only as
// reproducible as these rows.
//
// Timing fields are zeroed before comparison; they are the one sanctioned
// nondeterminism. The pinned floats assume Go's default strict float64
// semantics on the CI architecture (amd64, no FMA contraction); if CI
// ever changes architecture, regenerate with -update and review the diff.
func TestGoldenRowsCOMPAS(t *testing.T) {
	src := synth.COMPAS(300, 42)
	rows, err := CorrectnessFairness(src, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		rows[i].Seconds, rows[i].Overhead = 0, 0
	}
	checkGolden(t, "golden_compas_seed42.json", rows)
}

// TestGoldenRowsFig10Adult pins the model-sensitivity grid (Figure 10:
// every pre- and post-processing approach × LR, SVM, kNN, RF and MLP) on
// a small Adult slice at seed 42. Figure 7 only exercises logistic
// regression; these 45 rows are what pin the other four model families'
// kernels bit for bit.
func TestGoldenRowsFig10Adult(t *testing.T) {
	checkFig10Golden(t, "adult", "golden_fig10_adult_seed42.json")
}

// TestGoldenRowsFig10German pins the same 45-cell grid on German, the
// smallest benchmark: its few, mostly categorical attributes drive the
// repairs and the tree and kNN kernels down paths Adult does not take.
func TestGoldenRowsFig10German(t *testing.T) {
	checkFig10Golden(t, "german", "golden_fig10_german_seed42.json")
}

// checkFig10Golden runs the full Figure 10 grid on n=300 tuples of the
// dataset at seed 42 and compares its rows, timing zeroed, with the
// golden file.
func checkFig10Golden(t *testing.T, dataset, file string) {
	t.Helper()
	out, err := mustOpen(t, Spec{Experiment: "fig10", Dataset: dataset, N: 300, Seed: 42}).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Sensitivity
	if len(rows) != len(DefaultSensitivityApproaches)*len(ModelNames) {
		t.Fatalf("fig10 grid has %d rows, want %d", len(rows), len(DefaultSensitivityApproaches)*len(ModelNames))
	}
	for i := range rows {
		rows[i].Row.Seconds, rows[i].Row.Overhead = 0, 0
	}
	checkGolden(t, file, rows)
}

// checkGolden compares v's indented JSON encoding with testdata/name, or
// rewrites the file under -update.
func checkGolden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden rows drifted from %s — a numeric result changed.\n"+
			"If the change is intended, regenerate with -update and justify the diff in review.\n%s",
			path, goldenDiff(want, got))
	}
}

// TestGoldenRowsStableAcrossParallelism re-derives the golden rows once
// forced serial and once on a multi-worker pool; together with
// TestGoldenRowsCOMPAS this pins the golden file to both execution
// modes, not just to whichever one the test harness happens to use.
func TestGoldenRowsStableAcrossParallelism(t *testing.T) {
	src := synth.COMPAS(300, 42)
	a := runWorkers(t, fig7Grid(src, 42), 1).Rows
	b := runWorkers(t, fig7Grid(src, 42), 4).Rows
	for i := range a {
		if a[i].Correct != b[i].Correct || a[i].Fair != b[i].Fair {
			t.Fatalf("%s: repeated run diverges", a[i].Approach)
		}
	}
}

// goldenDiff reports the first line where the encodings diverge.
func goldenDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\n  golden: %s\n  got:    %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("one encoding is a prefix of the other (lengths %d vs %d)", len(want), len(got))
}
