package experiments

import (
	"math"
	"strings"
	"testing"

	"fairbench/internal/corrupt"
	"fairbench/internal/dataset"
	"fairbench/internal/registry"
	"fairbench/internal/rng"
	"fairbench/internal/synth"
)

func TestCorrectnessFairnessShape(t *testing.T) {
	out, err := fig7Grid(synth.COMPAS(1200, 1), 1).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Rows
	if len(rows) != 19 { // LR + 18 variants
		t.Fatalf("rows: %d", len(rows))
	}
	if rows[0].Approach != "LR" || rows[0].Overhead != 0 {
		t.Fatalf("baseline row: %+v", rows[0])
	}
	for _, r := range rows {
		if r.Correct.Accuracy < 0.3 || r.Correct.Accuracy > 1 {
			t.Fatalf("%s: accuracy %v implausible", r.Approach, r.Correct.Accuracy)
		}
		for _, v := range []float64{r.Fair.DIStar, r.Fair.TPRB, r.Fair.TNRB, r.Fair.ID, r.Fair.TE} {
			if v < -1e-9 || v > 1+1e-9 || math.IsNaN(v) {
				t.Fatalf("%s: fairness score out of [0,1]: %v", r.Approach, v)
			}
		}
	}
}

func TestEveryApproachImprovesItsTarget(t *testing.T) {
	// The paper's core Figure 7 claim: every approach improves the metric
	// it targets relative to the fairness-unaware baseline (allowing a
	// small sampling slack).
	out, err := fig7Grid(synth.COMPAS(3000, 2), 3).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Rows
	base := rows[0]
	for _, r := range rows[1:] {
		if len(r.Targets) == 0 {
			continue
		}
		got := targetScore(r)
		baseRow := base
		baseRow.Targets = r.Targets
		want := targetScore(baseRow)
		if got < want-0.05 {
			t.Errorf("%s: targeted metric %s = %.3f below baseline %.3f",
				r.Approach, r.Targets[0], got, want)
		}
	}
}

func TestScalabilityRows(t *testing.T) {
	out, err := scaleRowsGrid(synth.COMPAS(1500, 1), []int{300, 800}, []string{"KamCal-DP", "Hardt-EO"}, 1).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	for name, pts := range out.Scalability {
		if len(pts) != 2 {
			t.Fatalf("%s: %d points", name, len(pts))
		}
		for _, p := range pts {
			if p.Overhead < 0 {
				t.Fatalf("%s: negative overhead", name)
			}
		}
	}
}

func TestScalabilityAttrs(t *testing.T) {
	out, err := scaleAttrsGrid(synth.Adult(1200, 1), []int{2, 5}, []string{"Feld-DP"}, 1000, 1).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if pts := out.Scalability["Feld-DP"]; len(pts) != 2 {
		t.Fatalf("points: %d", len(pts))
	}
}

func TestRobustness(t *testing.T) {
	src := synth.COMPAS(1500, 1)
	g, err := robustnessGrid(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := g.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(dirty.Robustness) != 3 {
		t.Fatalf("templates: %d", len(dirty.Robustness))
	}
	clean, err := fig7Grid(src, 1).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range dirty.Robustness {
		if res.Template < corrupt.T1 || res.Template > corrupt.T3 {
			t.Fatalf("template: %v", res.Template)
		}
		deltas := Deltas(clean.Rows, res)
		if len(deltas) != len(res.Rows) {
			t.Fatalf("deltas: %d vs %d rows", len(deltas), len(res.Rows))
		}
	}
}

func TestModelSensitivitySpreads(t *testing.T) {
	out, err := sensitivityGrid(synth.Adult(1200, 1), []string{"Feld-DP", "KamKar-DP"}, 1).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Sensitivity
	if len(rows) != 2*len(ModelNames) {
		t.Fatalf("rows: %d", len(rows))
	}
	spreads := Spreads(rows)
	if len(spreads) != 2 {
		t.Fatalf("spreads: %d", len(spreads))
	}
	for _, s := range spreads {
		if s.AccSpread < 0 || s.DISpread < 0 {
			t.Fatalf("negative spread: %+v", s)
		}
		if len(s.AccByModel) != len(ModelNames) {
			t.Fatalf("models covered: %d", len(s.AccByModel))
		}
	}
}

func TestCrossValidate(t *testing.T) {
	out, err := cvGrid(synth.German(600, 1), 3, 1).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 19 {
		t.Fatalf("rows: %d", len(out.Rows))
	}
	for _, r := range out.Rows {
		if r.Correct.Accuracy <= 0 || r.Correct.Accuracy > 1 {
			t.Fatalf("%s: CV accuracy %v", r.Approach, r.Correct.Accuracy)
		}
	}
}

func TestStability(t *testing.T) {
	out, err := stabilityGrid(synth.COMPAS(900, 1), 3, 1).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Stability) != 19 {
		t.Fatalf("rows: %d", len(out.Stability))
	}
	for _, r := range out.Stability {
		if r.AccStd < 0 || math.IsNaN(r.AccStd) {
			t.Fatalf("%s: std %v", r.Approach, r.AccStd)
		}
	}
}

func TestDataEfficiency(t *testing.T) {
	out, err := efficiencyGrid(synth.COMPAS(1500, 1), []int{100, 400}, []string{"LR", "KamCal-DP"}, 1).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	for name, pts := range out.Efficiency {
		if len(pts) != 2 {
			t.Fatalf("%s: %d points", name, len(pts))
		}
		if pts[0].Size != 100 || pts[1].Size != 400 {
			t.Fatalf("%s: sizes %d %d", name, pts[0].Size, pts[1].Size)
		}
	}
}

func TestExtensions(t *testing.T) {
	out, err := mustOpen(t, Spec{Experiment: "fig15", Dataset: "compas", N: 1200, Seed: 1}).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	rows := out.Rows
	if len(rows) != 4 { // LR + 3 appendix variants
		t.Fatalf("rows: %d", len(rows))
	}
	base := rows[0]
	for _, r := range rows[1:] {
		if len(r.Targets) == 0 {
			continue
		}
		got := targetScore(r)
		baseRow := base
		baseRow.Targets = r.Targets
		if got < targetScore(baseRow)-0.05 {
			t.Errorf("%s: targeted metric below baseline", r.Approach)
		}
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	src := synth.COMPAS(800, 1)
	out1, err := fig7Grid(src, 5).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	out2, err := fig7Grid(src, 5).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := out1.Rows, out2.Rows
	for i := range r1 {
		if r1[i].Correct.Accuracy != r2[i].Correct.Accuracy ||
			r1[i].Fair.DIStar != r2[i].Fair.DIStar {
			t.Fatalf("%s: non-deterministic metrics", r1[i].Approach)
		}
	}
}

// TestEvaluateRejectsEmptySplits: every approach of Figures 7 and 15
// fails with an error naming the empty split, on an empty training split
// and on an empty test split, and so do a timing cell and a cv grid with
// more folds than tuples, whose first test fold is empty.
func TestEvaluateRejectsEmptySplits(t *testing.T) {
	src := synth.German(100, 1)
	train, test := src.Data.Split(0.7, rng.New(1))
	empty := src.Data.Subset(nil)
	names := append(append([]string{"LR"}, registry.Names...), registry.ExtendedNames...)
	for _, name := range names {
		for _, c := range []struct {
			split       string
			train, test *dataset.Dataset
		}{{"training", empty, test}, {"test", train, empty}} {
			a, err := registry.New(name, registry.Config{Graph: src.Graph, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := "empty " + c.split + " split"
			if _, err := Evaluate(a, c.train, c.test, src.Graph); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: Evaluate error %v, want %q", name, err, want)
			}
		}
	}
	if _, err := timeOne("Zafar-DP-Fair", empty, test, src.Graph, 1); err == nil || !strings.Contains(err.Error(), "empty training split") {
		t.Fatalf("timeOne error %v, want an empty training split", err)
	}
	_, err := mustOpen(t, Spec{Experiment: "cv", Dataset: "german", N: 4, Seed: 1}).RunAll()
	if err == nil || !strings.Contains(err.Error(), "empty test split") {
		t.Fatalf("cv over 4 tuples in 5 folds: error %v, want an empty test split", err)
	}
}
