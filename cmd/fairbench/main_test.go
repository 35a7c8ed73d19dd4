package main

import (
	"strings"
	"testing"
)

// TestEvalRejectsSizeOutsidePaperBounds: eval bounds -n by the dataset's
// paper size exactly as every figure command's grid spec does, before
// anything is synthesized, instead of generating an oversized dataset
// or quietly running at the paper size.
func TestEvalRejectsSizeOutsidePaperBounds(t *testing.T) {
	for _, n := range []int{1001, -1} {
		err := cmdEval("german", "LR", n, 1)
		if err == nil || !strings.Contains(err.Error(), "outside [0,1000]") {
			t.Errorf("eval -dataset german -n %d: error %v, want n outside [0,1000]", n, err)
		}
	}
}
