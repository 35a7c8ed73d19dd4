package registry

import (
	"testing"

	"fairbench/internal/fair"
	"fairbench/internal/synth"
)

func TestAllNamesConstruct(t *testing.T) {
	src := synth.COMPAS(200, 1)
	for _, name := range Names {
		a, err := New(name, Config{Graph: src.Graph, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("constructed %q under name %q", a.Name(), name)
		}
	}
}

func TestEighteenVariants(t *testing.T) {
	if len(Names) != 18 {
		t.Fatalf("paper evaluates 18 variants, registry has %d", len(Names))
	}
}

func TestStageDistribution(t *testing.T) {
	// Figure 5: 7 pre-processing variants, 8 in-processing, 3 post.
	byStage := ByStage()
	if got := len(byStage[fair.StagePre]); got != 7 {
		t.Fatalf("pre-processing variants: %d", got)
	}
	if got := len(byStage[fair.StageIn]); got != 8 {
		t.Fatalf("in-processing variants: %d", got)
	}
	if got := len(byStage[fair.StagePost]); got != 3 {
		t.Fatalf("post-processing variants: %d", got)
	}
}

func TestExtendedNamesConstruct(t *testing.T) {
	// The three appendix variants (Figure 15) construct and identify.
	if len(ExtendedNames) != 3 {
		t.Fatalf("extended variants: %d", len(ExtendedNames))
	}
	for _, name := range ExtendedNames {
		a, err := New(name, Config{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("constructed %q under name %q", a.Name(), name)
		}
	}
}

func TestBaselineName(t *testing.T) {
	a, err := New("LR", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stage() != fair.StageNone {
		t.Fatal("LR must be the fairness-unaware baseline")
	}
}

func TestUnknownName(t *testing.T) {
	if _, err := New("nope", Config{}); err == nil {
		t.Fatal("unknown name must error")
	}
}

func TestEveryTargetIsAKnownMetric(t *testing.T) {
	known := map[fair.Metric]bool{
		fair.MetricDI: true, fair.MetricTPRB: true, fair.MetricTNRB: true,
		fair.MetricID: true, fair.MetricTE: true,
	}
	for _, name := range Names {
		a, err := New(name, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range a.Targets() {
			if !known[m] {
				t.Fatalf("%s targets unknown metric %q", name, m)
			}
		}
	}
}
