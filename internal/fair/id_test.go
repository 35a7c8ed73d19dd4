package fair_test

import (
	"math"
	"slices"
	"testing"

	"fairbench/internal/dataset"
	"fairbench/internal/fair"
	"fairbench/internal/metrics"
	"fairbench/internal/registry"
	"fairbench/internal/rng"
	"fairbench/internal/synth"
)

// sBlind lists the approaches whose classifier input excludes S (Section
// 4.2): their ID is 0 by construction.
var sBlind = map[string]bool{
	"Feld-DP": true, "Madras-DP": true, "Agarwal-DP": true, "Agarwal-EO": true,
	"Zafar-DP-Fair": true, "Zafar-DP-Acc": true, "Zafar-EO-Fair": true,
	"ZhaLe-EO": true, "Thomas-DP": true, "Thomas-EO": true,
}

// allApproaches is the baseline, the 18 evaluated variants and the three
// appendix ones.
func allApproaches() []string {
	return append(append([]string{"LR"}, registry.Names...), registry.ExtendedNames...)
}

// fitApproach constructs, fits and runs one approach, returning it with
// Predict's labels on test.
func fitApproach(t *testing.T, name, model string, src *synth.Source, seed int64, train, test *dataset.Dataset) (fair.Approach, []int) {
	t.Helper()
	a, err := registry.New(name, registry.Config{Graph: src.Graph, Model: model, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Fit(train); err != nil {
		t.Fatalf("%s/%s: %v", name, model, err)
	}
	yhat, err := a.Predict(test)
	if err != nil {
		t.Fatalf("%s/%s: %v", name, model, err)
	}
	return a, yhat
}

// blockID is the ID metric as ComputeFairness scores it.
func blockID(a fair.Approach, test *dataset.Dataset, yhat []int) float64 {
	return metrics.IndividualDiscrimination(a.PredictFlipped(test, yhat))
}

// rowLabel labels test tuple i with classifier-input S sInput, one row at
// a time: through fair.RowLabel where this package defines the approach,
// and otherwise — the in-processing approaches, which have no test
// transform — by predicting a one-tuple dataset whose S is sInput.
func rowLabel(t *testing.T, a fair.Approach, test *dataset.Dataset, i, sInput int) int {
	t.Helper()
	if label, ok := fair.RowLabel(a, test.X[i], test.S[i], sInput); ok {
		return label
	}
	one := test.Subset([]int{i})
	one.S[0] = sInput
	yhat, err := a.Predict(one)
	if err != nil {
		t.Fatal(err)
	}
	return yhat[0]
}

// checkRowReference holds the block ID pass to the per-row definition:
// the factual labels are the row queries at each tuple's own S (and, for
// every deterministic approach, Predict's labels), the flipped labels
// the row queries at 1−S, and the ID scored from them is bit-identical.
func checkRowReference(t *testing.T, cell string, a fair.Approach, test *dataset.Dataset, yhat []int) {
	t.Helper()
	factual, flipped := a.PredictFlipped(test, yhat)
	_, post := a.(*fair.PostProcessed)
	changed := 0
	for i, s := range test.S {
		own, flip := rowLabel(t, a, test, i, s), rowLabel(t, a, test, i, 1-s)
		if factual[i] != own || flipped[i] != flip || (!post && yhat[i] != own) {
			t.Fatalf("%s tuple %d: block factual %d flipped %d (Predict %d), row reference %d and %d",
				cell, i, factual[i], flipped[i], yhat[i], own, flip)
		}
		if own != flip {
			changed++
		}
	}
	ref := float64(changed) / float64(test.Len())
	if got := blockID(a, test, yhat); math.Float64bits(got) != math.Float64bits(ref) {
		t.Fatalf("%s: block ID %v, per-row reference %v", cell, got, ref)
	}
}

// TestBlockIDMatchesRowReference runs the per-row reference over fig7's
// grid (the baseline and every variant on one split, unarmed) and over
// fig10's 45 cells (each pre- and post-processing approach of the sweep
// with each model, on one armed split, so the post-processors read the
// base's shared test scores).
func TestBlockIDMatchesRowReference(t *testing.T) {
	src := synth.German(300, 4)
	train, test := src.Data.Split(0.7, rng.New(4))
	for _, name := range allApproaches() {
		a, yhat := fitApproach(t, name, "", src, 4, train, test)
		checkRowReference(t, "fig7 "+name, a, test, yhat)
	}

	src = synth.Adult(300, 2)
	train, test = src.Data.Split(0.7, rng.New(2))
	train.EnableBatchCache()
	for _, model := range []string{"LR", "SVM", "kNN", "RF", "MLP"} {
		for _, name := range []string{
			"KamCal-DP", "Feld-DP", "Calmon-DP", "ZhaWu-PSF", "ZhaWu-DCE",
			"Salimi-JF-MaxSAT", "KamKar-DP", "Hardt-EO", "Pleiss-EOP",
		} {
			a, yhat := fitApproach(t, name, model, src, 2, train, test)
			checkRowReference(t, "fig10 "+name+"/"+model, a, test, yhat)
		}
	}
}

// TestIDMetamorphic checks relations the ID metric must satisfy with no
// golden file, for every approach on one COMPAS split: ID is unchanged
// when the test rows are permuted and when every test tuple is
// duplicated; it is exactly 0 when the classifier never sees S; and it
// is positive for the baseline and the post-processors, which see S
// directly (Section 4.2).
func TestIDMetamorphic(t *testing.T) {
	src := synth.COMPAS(400, 6)
	train, test := src.Data.Split(0.7, rng.New(6))
	perm := rng.New(7).Perm(test.Len())
	permuted := test.Subset(perm)
	idx := make([]int, 0, 2*test.Len())
	for i := range test.Len() {
		idx = append(idx, i, i)
	}
	doubled := test.Subset(idx)
	for _, name := range allApproaches() {
		a, yhat := fitApproach(t, name, "", src, 6, train, test)
		id := blockID(a, test, yhat)
		for _, v := range []struct {
			kind string
			d    *dataset.Dataset
		}{{"permuted", permuted}, {"duplicated", doubled}} {
			vy, err := a.Predict(v.d)
			if err != nil {
				t.Fatal(err)
			}
			if got := blockID(a, v.d, vy); got != id {
				t.Fatalf("%s: ID %v on the %s test split, %v on the original", name, got, v.kind, id)
			}
		}
		switch {
		case sBlind[name] && id != 0:
			t.Fatalf("%s never sees S, yet ID = %v", name, id)
		case (name == "LR" || slices.Contains(registry.ByStage()[fair.StagePost], name)) && id == 0:
			t.Fatalf("%s sees S directly, yet no label changes when S flips", name)
		}
	}
}
