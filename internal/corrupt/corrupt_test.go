package corrupt

import (
	"math"
	"testing"

	"fairbench/internal/synth"
)

func TestSwapValues(t *testing.T) {
	src := synth.COMPAS(2000, 1)
	out, err := SwapValues(src.Data, "Prior", "Age", PaperRates, 7)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != src.Data.Len() {
		t.Fatal("swap must preserve size")
	}
	changedU, changedP, nU, nP := 0, 0, 0, 0
	for i := range out.X {
		changed := out.X[i][0] != src.Data.X[i][0]
		if changed {
			// A swap exchanges the pair exactly.
			if out.X[i][0] != src.Data.X[i][2] || out.X[i][2] != src.Data.X[i][0] {
				t.Fatal("swap did not exchange the two attributes")
			}
		}
		if src.Data.S[i] == 0 {
			nU++
			if changed {
				changedU++
			}
		} else {
			nP++
			if changed {
				changedP++
			}
		}
	}
	// Note: tuples where Age == Prior register as unchanged, so measured
	// rates sit slightly below the nominal 50%/10%.
	rU := float64(changedU) / float64(nU)
	rP := float64(changedP) / float64(nP)
	if rU < 0.40 || rU > 0.55 {
		t.Fatalf("unprivileged corruption rate %v, want ~0.5", rU)
	}
	if rP < 0.05 || rP > 0.15 {
		t.Fatalf("privileged corruption rate %v, want ~0.1", rP)
	}
	if rU <= rP {
		t.Fatal("corruption must be disproportionate")
	}
}

func TestSwapUnknownAttr(t *testing.T) {
	src := synth.COMPAS(100, 1)
	if _, err := SwapValues(src.Data, "Nope", "Age", PaperRates, 1); err == nil {
		t.Fatal("unknown attribute must error")
	}
}

func TestScaleAndNoise(t *testing.T) {
	src := synth.COMPAS(2000, 2)
	out, err := ScaleAndNoise(src.Data, "Prior", 3.0, "Age", 8.0, PaperRates, 9)
	if err != nil {
		t.Fatal(err)
	}
	scaled := 0
	for i := range out.X {
		if out.X[i][2] != src.Data.X[i][2] {
			scaled++
			if src.Data.X[i][2] != 0 && math.Abs(out.X[i][2]-3*src.Data.X[i][2]) > 1e-9 {
				t.Fatal("scaling must multiply by the factor")
			}
		}
	}
	if scaled == 0 {
		t.Fatal("no tuples scaled")
	}
}

func TestMissingImputed(t *testing.T) {
	src := synth.COMPAS(4000, 3)
	out, err := MissingImputed(src.Data, PaperRates, 11)
	if err != nil {
		t.Fatal(err)
	}
	changedS := 0
	for i := range out.S {
		if out.S[i] != src.Data.S[i] {
			changedS++
		}
	}
	if changedS == 0 {
		t.Fatal("imputation changed nothing")
	}
	// Imputed values are a single mode: the affected unprivileged tuples
	// flip to the observed majority group.
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyCOMPASTemplates(t *testing.T) {
	src := synth.COMPAS(1000, 4)
	for _, tmpl := range []Template{T1, T2, T3} {
		out, err := ApplyCOMPAS(src.Data, tmpl, 5)
		if err != nil {
			t.Fatalf("%v: %v", tmpl, err)
		}
		if out.Len() != 1000 {
			t.Fatalf("%v: size changed", tmpl)
		}
		if out.Name == src.Data.Name {
			t.Fatalf("%v: corrupted dataset should be renamed", tmpl)
		}
	}
	if _, err := ApplyCOMPAS(src.Data, Template(9), 5); err == nil {
		t.Fatal("unknown template must error")
	}
}

func TestDeterminism(t *testing.T) {
	src := synth.COMPAS(500, 6)
	a, _ := ApplyCOMPAS(src.Data, T1, 21)
	b, _ := ApplyCOMPAS(src.Data, T1, 21)
	for i := range a.X {
		if a.X[i][0] != b.X[i][0] {
			t.Fatal("same seed must corrupt identically")
		}
	}
}
