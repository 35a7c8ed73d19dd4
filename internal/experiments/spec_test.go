package experiments

import (
	"encoding/json"
	"reflect"
	"testing"

	"fairbench/internal/synth"
)

// ones returns n copies of 1: a valid axis entry, n times over.
func ones(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// TestSpecNormalizeBoundsSizes pins the size bounds Normalize enforces
// before Open synthesizes anything: one rejected case per bounded field,
// and the same fields accepted at their bounds.
func TestSpecNormalizeBoundsSizes(t *testing.T) {
	names := make([]string, MaxAxis+1)
	for i := range names {
		names[i] = "LR"
	}
	rejected := []struct {
		name string
		spec Spec
	}{
		{"negative n", Spec{Experiment: "fig7", Dataset: "german", N: -5}},
		{"n above adult", Spec{Experiment: "fig7", Dataset: "adult", N: synth.PaperSize("adult") + 1}},
		{"n above compas", Spec{Experiment: "fig7", Dataset: "compas", N: synth.PaperSize("compas") + 1}},
		{"n above german", Spec{Experiment: "fig7", Dataset: "german", N: synth.PaperSize("german") + 1}},
		{"n of two billion", Spec{Experiment: "fig10", N: 2000000000}},
		{"k", Spec{Experiment: "cv", Dataset: "german", K: MaxAxis + 1}},
		{"runs", Spec{Experiment: "fig22", Runs: MaxAxis + 1}},
		{"sizes", Spec{Experiment: "fig23", Sizes: ones(MaxAxis + 1)}},
		{"attrCounts", Spec{Experiment: "fig8attrs", AttrCounts: ones(MaxAxis + 1)}},
		{"names", Spec{Experiment: "fig10", Names: names}},
		{"zero size", Spec{Experiment: "fig8rows", Sizes: []int{100, 0}}},
		{"negative attrCount", Spec{Experiment: "fig8attrs", AttrCounts: []int{-2}}},
		{"negative sampleSize", Spec{Experiment: "fig8attrs", SampleSize: -1}},
	}
	for _, c := range rejected {
		if ns, err := c.spec.Normalize(); err == nil {
			t.Errorf("%s: accepted %+v", c.name, ns)
		}
	}
	accepted := []Spec{
		{Experiment: "fig7", Dataset: "adult", N: synth.PaperSize("adult")},
		{Experiment: "fig7", Dataset: "compas", N: synth.PaperSize("compas")},
		{Experiment: "fig7", Dataset: "german", N: synth.PaperSize("german")},
		{Experiment: "cv", Dataset: "german", K: MaxAxis},
		{Experiment: "fig22", Runs: MaxAxis},
		{Experiment: "fig23", Sizes: ones(MaxAxis)},
		{Experiment: "fig8attrs", AttrCounts: ones(MaxAxis)},
		{Experiment: "fig10", Names: names[:MaxAxis]},
	}
	for _, spec := range accepted {
		if _, err := spec.Normalize(); err != nil {
			t.Errorf("%+v: %v", spec, err)
		}
	}
}

// FuzzSpecNormalize feeds arbitrary JSON through the decode-then-
// Normalize path a POST /runs body takes. Normalize must never panic, and
// a spec it accepts must be a fixed point: normalizing it again changes
// nothing, so its fingerprint is stable.
func FuzzSpecNormalize(f *testing.F) {
	for _, seed := range []string{
		`{"experiment":"fig7","dataset":"german","n":240,"seed":7}`,
		`{"experiment":"FIG10","n":300,"seed":42,"names":["Feld-DP","KamKar-DP"]}`,
		`{"experiment":"cv","dataset":" Compas ","k":3,"runs":9,"sizes":[1]}`,
		`{"experiment":"fig22","runs":101}`,
		`{"experiment":"fig23","dataset":"adult","n":-5,"sizes":[80,160]}`,
		`{"experiment":"fig8attrs","n":45222,"attrCounts":[2,4],"sampleSize":250}`,
		`{"experiment":"fig8rows","dataset":"compas","n":400}`,
		`{"experiment":"fig9","bias":"under","biasRate":0.3,"biasRateNeg":0.1}`,
		`{"experiment":"fig7","dataset":"compas","bias":"LABEL","biasRate":0.2,"biasRateNeg":0.5}`,
		`{"experiment":"fig7","dataset":"german","n":2000000000}`,
		`{"experiment":"fig10","biasRate":0.2}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		ns, err := spec.Normalize()
		if err != nil {
			return
		}
		again, err := ns.Normalize()
		if err != nil {
			t.Fatalf("normalized spec %+v rejected on a second pass: %v", ns, err)
		}
		if !reflect.DeepEqual(again, ns) {
			t.Fatalf("Normalize is not idempotent:\nonce:  %+v\ntwice: %+v", ns, again)
		}
	})
}
