package causal

import (
	"math"
	"testing"

	"fairbench/internal/dataset"
)

// universityGraph builds the Figure 13 graph of the paper's appendix:
// gender -> dept_choice -> admitted, gender -> admitted, SAT -> admitted.
func universityGraph() *Graph {
	g := NewGraph()
	g.MustEdge("gender", "dept_choice")
	g.MustEdge("gender", "admitted")
	g.MustEdge("dept_choice", "admitted")
	g.MustEdge("SAT", "admitted")
	return g
}

func TestCycleRejection(t *testing.T) {
	g := NewGraph()
	g.MustEdge("a", "b")
	g.MustEdge("b", "c")
	if err := g.AddEdge("c", "a"); err == nil {
		t.Fatal("cycle must be rejected")
	}
	if err := g.AddEdge("a", "a"); err == nil {
		t.Fatal("self-loop must be rejected")
	}
}

func TestParentsChildren(t *testing.T) {
	g := universityGraph()
	p := g.Parents("admitted")
	if len(p) != 3 {
		t.Fatalf("parents of admitted: %v", p)
	}
	c := g.Children("gender")
	if len(c) != 2 {
		t.Fatalf("children of gender: %v", c)
	}
}

func TestDescendantsAncestors(t *testing.T) {
	g := universityGraph()
	d := g.Descendants("gender")
	if !d["dept_choice"] || !d["admitted"] || d["SAT"] {
		t.Fatalf("descendants of gender: %v", d)
	}
	a := g.Ancestors("admitted")
	if !a["gender"] || !a["SAT"] || !a["dept_choice"] {
		t.Fatalf("ancestors of admitted: %v", a)
	}
}

func TestMediators(t *testing.T) {
	g := universityGraph()
	m := g.Mediators("gender", "admitted")
	if len(m) != 1 || m[0] != "dept_choice" {
		t.Fatalf("mediators: %v", m)
	}
}

// universityData builds the 12-tuple Figure 12 table with the predictions
// listed there (admitted column). Attributes: SAT (0=Average, 1=High) and
// dept_choice (0=Mathematics, 1=Physics); S: gender (1=Male).
func universityData() (*dataset.Dataset, []int) {
	d := &dataset.Dataset{
		Name: "university",
		Attrs: []dataset.Attr{
			{Name: "SAT", Kind: dataset.Categorical, Card: 2},
			{Name: "dept_choice", Kind: dataset.Categorical, Card: 2},
		},
		SName: "gender",
		YName: "admitted",
	}
	rows := []struct {
		sat, dept, s, yhat int
	}{
		{1, 1, 1, 1}, {1, 0, 1, 0}, {0, 1, 1, 1}, {1, 0, 1, 1},
		{1, 1, 1, 1}, {0, 0, 1, 0},
		{1, 0, 0, 0}, {0, 0, 0, 0}, {1, 0, 0, 1}, {1, 1, 0, 1},
		{0, 0, 0, 0}, {0, 1, 0, 1},
	}
	var yhat []int
	for _, r := range rows {
		d.X = append(d.X, []float64{float64(r.sat), float64(r.dept)})
		d.S = append(d.S, r.s)
		d.Y = append(d.Y, r.yhat) // ground truth unused by the estimator
		yhat = append(yhat, r.yhat)
	}
	return d, yhat
}

func TestTotalEffectWorkedExample(t *testing.T) {
	// Paper Example 4: TE = P(Ŷ|S=1) - P(Ŷ|S=0) = 4/6 - 3/6 = 1/6.
	g := NewGraph()
	g.MustEdge("gender", "dept_choice")
	g.MustEdge("gender", "admitted")
	g.MustEdge("dept_choice", "admitted")
	g.MustEdge("SAT", "admitted")
	d, yhat := universityData()
	est := NewEstimator(d, g, 2)
	eff := est.Strata(d).Effects(yhat)
	if math.Abs(eff.TE-1.0/6) > 1e-9 {
		t.Fatalf("TE: got %v want %v", eff.TE, 1.0/6)
	}
	// dept_choice is the only mediator.
	med := est.Mediators()
	if len(med) != 1 || med[0] != 1 {
		t.Fatalf("mediators: %v", med)
	}
	// NDE + NIE must carry the same sign structure as TE and stay in
	// range; for this near-additive example their sum approximates TE.
	if math.Abs(eff.NDE+eff.NIE-eff.TE) > 0.25 {
		t.Fatalf("NDE (%v) + NIE (%v) far from TE (%v)", eff.NDE, eff.NIE, eff.TE)
	}
}

func TestEffectsNoMediator(t *testing.T) {
	// Graph with no directed path through attributes: all effect direct.
	g := NewGraph()
	g.MustEdge("gender", "admitted")
	g.MustEdge("SAT", "admitted")
	g.AddNode("dept_choice")
	d, yhat := universityData()
	est := NewEstimator(d, g, 2)
	eff := est.Strata(d).Effects(yhat)
	if eff.NDE != eff.TE || eff.NIE != 0 {
		t.Fatalf("no-mediator decomposition: %+v", eff)
	}
}

func TestEffectsFairPredictor(t *testing.T) {
	// Predictions independent of S and of the mediators: all effects 0.
	g := universityGraph()
	d, _ := universityData()
	yhat := make([]int, d.Len())
	for i := range yhat {
		yhat[i] = 1
	}
	est := NewEstimator(d, g, 2)
	eff := est.Strata(d).Effects(yhat)
	if eff.TE != 0 || math.Abs(eff.NDE) > 1e-9 || math.Abs(eff.NIE) > 1e-9 {
		t.Fatalf("constant predictor must have zero effects: %+v", eff)
	}
}

func TestEstimateEmpty(t *testing.T) {
	g := universityGraph()
	d, _ := universityData()
	est := NewEstimator(d, g, 2)
	empty := &dataset.Dataset{Name: "e", Attrs: d.Attrs, SName: d.SName, YName: d.YName}
	eff := est.Strata(empty).Effects(nil)
	if eff.TE != 0 {
		t.Fatalf("empty estimate: %+v", eff)
	}
}
