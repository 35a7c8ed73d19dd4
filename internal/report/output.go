// output.go renders grid results (experiments.Output) into the tables
// the CLI's figure commands print. Every path that produces an Output —
// a figure command on the in-process engine, merge, dispatch, sched,
// and the serve daemon's /runs/{id}/table endpoint — shares this one
// renderer, so their tables match byte for byte.
package report

import (
	"fmt"
	"io"
	"sort"

	"fairbench/internal/experiments"
	"fairbench/internal/synth"
)

// RenderOutput writes a grid result as the tables its figure command
// prints. fig9's "Δ vs clean training" tables need a second grid, so
// they appear only through RenderRobustness with the clean rows.
func RenderOutput(w io.Writer, out *experiments.Output) error {
	spec := out.Spec
	ds := DatasetLabel(spec)
	switch out.Experiment {
	case "fig7":
		title := fmt.Sprintf("Figure 7 — correctness & fairness on %s (|D|=%d)", ds, generatedSize(spec))
		return RowsTable(title, out.Rows).Render(w)
	case "fig15":
		title := fmt.Sprintf("Figure 15 — appendix extensions on %s (|D|=%d)", ds, generatedSize(spec))
		return RowsTable(title, out.Rows).Render(w)
	case "cv":
		title := fmt.Sprintf("Figures 16-18 — %d-fold cross validation on %s", spec.K, ds)
		return RowsTable(title, out.Rows).Render(w)
	case "fig9":
		return RenderRobustness(w, out.Robustness, ds, nil)
	case "fig10":
		return RenderSensitivity(w, out.Sensitivity, ds)
	case "fig22":
		return RenderStability(w, out.Stability, spec.Runs, ds)
	case "fig23":
		return RenderEfficiency(w, out.Efficiency, spec.Sizes, ds)
	case "fig8rows":
		return ScalabilityTable(fmt.Sprintf("Figure 8(a-c) — runtime overhead vs #data points (%s)", ds), "points", out.Scalability).Render(w)
	case "fig8attrs":
		return ScalabilityTable(fmt.Sprintf("Figure 8(d-f) — runtime overhead vs #attributes (%s)", ds), "attrs", out.Scalability).Render(w)
	default:
		return fmt.Errorf("render: unknown experiment %q", out.Experiment)
	}
}

// generatedSize is the tuple count the spec's dataset is generated with
// (its n, or the paper size for n = 0), before any bias injection.
func generatedSize(spec experiments.Spec) int {
	if spec.N > 0 {
		return spec.N
	}
	return synth.PaperSize(spec.Dataset)
}

// RenderRobustness writes Figure 9's per-template tables. Given clean,
// the rows of the Figure 7 grid on the same data, each template's table
// is followed by its "Δ vs clean training" table.
func RenderRobustness(w io.Writer, results []experiments.RobustnessResult, dataset string, clean []experiments.Row) error {
	for _, res := range results {
		title := fmt.Sprintf("Figure 9 — robustness on %s + %s", dataset, res.Template)
		if err := RowsTable(title, res.Rows).Render(w); err != nil {
			return err
		}
		if clean != nil {
			dt := &Table{
				Title:   fmt.Sprintf("Δ vs clean training (%s)", res.Template),
				Headers: []string{"approach", "accuracy drop", "target-fairness drop"},
			}
			for _, d := range experiments.Deltas(clean, res) {
				dt.Add(d.Approach, F(d.AccuracyDrop), F(d.TargetFairDrop))
			}
			if err := dt.Render(w); err != nil {
				return err
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// datasetNames maps a spec's dataset to the name its generator gives the
// data, the name every figure title shows.
var datasetNames = map[string]string{"adult": "Adult", "compas": "COMPAS", "german": "German"}

// DatasetLabel names the data a grid actually ran on: the stock dataset,
// suffixed with the bias-injection setting when the spec carries one.
// Every table title routes through this so a biased grid can never be
// mistaken for a clean one in rendered output.
func DatasetLabel(spec experiments.Spec) string {
	name := datasetNames[spec.Dataset]
	if b := spec.BiasLabelText(); b != "" {
		return name + " [" + b + "]"
	}
	return name
}

// RowsTable lays out per-approach correctness/fairness rows — the
// paper's core table shape (Figures 7, 15-18).
func RowsTable(title string, rows []experiments.Row) *Table {
	t := &Table{
		Title: title,
		Headers: []string{"approach", "stage", "acc", "prec", "rec", "f1",
			"DI*", "1-|TPRB|", "1-|TNRB|", "1-ID", "1-|TE|", "1-|NDE|", "1-|NIE|", "overhead(s)"},
	}
	for _, r := range rows {
		t.Add(r.Approach, r.Stage,
			F(r.Correct.Accuracy), F(r.Correct.Precision),
			F(r.Correct.Recall), F(r.Correct.F1),
			F(r.Fair.DIStar), F(r.Fair.TPRB), F(r.Fair.TNRB),
			F(r.Fair.ID), F(r.Fair.TE), F(r.Fair.NDE),
			F(r.Fair.NIE), F(r.Overhead))
	}
	return t
}

// ScalabilityTable lays out Figure 8's overhead-vs-x series, one row
// per approach, one column per x value.
func ScalabilityTable(title, xlabel string, series map[string][]experiments.ScalabilityPoint) *Table {
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	var xs []int
	if len(names) > 0 {
		for _, p := range series[names[0]] {
			xs = append(xs, p.X)
		}
	}
	headers := []string{"approach"}
	for _, x := range xs {
		headers = append(headers, fmt.Sprintf("%s=%d", xlabel, x))
	}
	t := &Table{Title: title, Headers: headers}
	for _, n := range names {
		cells := []string{n}
		for _, p := range series[n] {
			cells = append(cells, fmt.Sprintf("%.3fs", p.Overhead))
		}
		t.Add(cells...)
	}
	return t
}

// RenderSensitivity writes Figure 10/21's model-sensitivity table plus
// the per-approach spread summary.
func RenderSensitivity(w io.Writer, rows []experiments.SensitivityRow, dataset string) error {
	t := &Table{
		Title:   fmt.Sprintf("Figure 10/21 — model sensitivity on %s", dataset),
		Headers: []string{"approach", "model", "acc", "DI*", "1-|TE|"},
	}
	for _, r := range rows {
		t.Add(r.Approach, r.Model, F(r.Row.Correct.Accuracy),
			F(r.Row.Fair.DIStar), F(r.Row.Fair.TE))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	st := &Table{
		Title:   "Per-approach spread across models (pre varies, post stays flat)",
		Headers: []string{"approach", "stage", "acc spread", "DI* spread"},
	}
	for _, s := range experiments.Spreads(rows) {
		st.Add(s.Approach, s.Stage, F(s.AccSpread), F(s.DISpread))
	}
	fmt.Fprintln(w)
	return st.Render(w)
}

// RenderStability writes Figure 22's mean±std stability table.
func RenderStability(w io.Writer, rows []experiments.StabilityRow, runs int, dataset string) error {
	t := &Table{
		Title:   fmt.Sprintf("Figure 22 — stability over %d random folds (%s)", runs, dataset),
		Headers: []string{"approach", "stage", "acc mean±std", "DI* mean±std", "1-|TPRB| mean±std", "f1 mean±std"},
	}
	for _, r := range rows {
		t.Add(r.Approach, r.Stage,
			fmt.Sprintf("%.3f±%.3f", r.AccMean, r.AccStd),
			fmt.Sprintf("%.3f±%.3f", r.DIMean, r.DIStd),
			fmt.Sprintf("%.3f±%.3f", r.TPRBMean, r.TPRBStd),
			fmt.Sprintf("%.3f±%.3f", r.F1Mean, r.F1Std))
	}
	return t.Render(w)
}

// RenderEfficiency writes Figure 23's accuracy-by-training-size and
// DI*-by-training-size tables.
func RenderEfficiency(w io.Writer, series map[string][]experiments.EfficiencyPoint, sizes []int, dataset string) error {
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	headers := []string{"approach"}
	for _, s := range sizes {
		headers = append(headers, fmt.Sprintf("acc@%d", s))
	}
	t := &Table{Title: fmt.Sprintf("Figure 23 — data efficiency on %s (accuracy by training size)", dataset), Headers: headers}
	for _, name := range names {
		cells := []string{name}
		for _, p := range series[name] {
			cells = append(cells, F(p.Row.Correct.Accuracy))
		}
		t.Add(cells...)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	t2 := &Table{Title: "Figure 23 — DI* by training size", Headers: headers}
	for _, name := range names {
		cells := []string{name}
		for _, p := range series[name] {
			cells = append(cells, F(p.Row.Fair.DIStar))
		}
		t2.Add(cells...)
	}
	fmt.Fprintln(w)
	return t2.Render(w)
}
