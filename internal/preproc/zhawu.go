package preproc

import (
	"math"

	"fairbench/internal/causal"
	"fairbench/internal/dataset"
	"fairbench/internal/fair"
)

// ZhaWu implements Zhang, Wu & Wu's causal label repairs. Both variants
// exploit the dataset's causal graph to locate the causal influence of the
// sensitive attribute S on the ground-truth label Y and then minimally
// modify Y:
//
//   - direct-causal-effect mode (Zha-Wu^dce): within every stratum q of the
//     mediator set Q (the parents of Y that block all indirect paths from S
//     to Y), the per-group label-rate gap Δq = P(Y=1|S=1,q) - P(Y=1|S=0,q)
//     is pushed below the threshold zhaWuTau by flipping the fewest labels;
//   - path-specific mode (Zha-Wu^psf): after the per-stratum (direct-path)
//     repair, the residual marginal gap |P(Y=1|S=1) - P(Y=1|S=0)| — the
//     effect transmitted through the indirect paths — is also flipped away
//     until it falls below zhaWuEpsilon, removing the causal influence of S
//     through every path.
type ZhaWu struct {
	// Graph is the dataset's causal model (Appendix C).
	Graph *causal.Graph
	// PathSpecific selects the psf variant; false = dce.
	PathSpecific bool
}

// ZhaWu's allowable per-stratum direct effect τ and allowable total
// effect ε for the psf variant (both the paper's 0.05), and the
// discretization of numeric mediators for stratification.
const (
	zhaWuTau     float64 = 0.05
	zhaWuEpsilon float64 = 0.05
	zhaWuBins    int     = 4
)

// Repair implements fair.Repairer.
func (z *ZhaWu) Repair(train *dataset.Dataset) (*dataset.Dataset, error) {
	out := train.Clone()

	// Mediator set Q: attributes on directed paths S -> ... -> Y.
	med := map[string]bool{}
	if z.Graph != nil {
		for _, m := range z.Graph.Mediators(train.SName, train.YName) {
			med[m] = true
		}
	}
	var q []int
	for j, a := range train.Attrs {
		if med[a.Name] {
			q = append(q, j)
		}
	}
	disc := dataset.FitDiscretizer(train, zhaWuBins)

	// Group tuple indices by stratum code.
	strata := map[int][]int{}
	for i, row := range out.X {
		code, _ := disc.Code(row, q)
		strata[code] = append(strata[code], i)
	}
	for _, idx := range strata {
		z.repairStratum(out, idx, zhaWuTau)
	}

	if z.PathSpecific {
		// Remove the residual (indirect-path) effect: treat the whole
		// dataset as one stratum and flip toward the epsilon band.
		all := make([]int, out.Len())
		for i := range all {
			all[i] = i
		}
		z.repairStratum(out, all, zhaWuEpsilon)
	}
	return out, nil
}

// repairStratum flips the minimum number of labels among tuples idx so the
// group label-rate gap within the stratum is at most tol. The repair is
// balanced — half of the gap is removed by demoting positives in the
// over-favored group and half by promoting negatives in the other — so the
// stratum's overall base rate is preserved (the minimal-perturbation
// property of the original quadratic program). Flips are deterministic,
// taken from the start of the index list.
func (z *ZhaWu) repairStratum(d *dataset.Dataset, idx []int, tol float64) {
	var n0, n1, p0, p1 float64
	for _, i := range idx {
		if d.S[i] == 1 {
			n1++
			p1 += float64(d.Y[i])
		} else {
			n0++
			p0 += float64(d.Y[i])
		}
	}
	if n0 == 0 || n1 == 0 {
		return
	}
	gap := p1/n1 - p0/n0
	if math.Abs(gap) <= tol {
		return
	}
	// The tolerance is the trigger; a triggered stratum is repaired to
	// (approximately) zero gap, mirroring the original's removal of the
	// offending causal effect rather than trimming it to the threshold.
	overGroup := 1 // group whose rate must fall
	if gap < 0 {
		overGroup = 0
	}
	nOver, nUnder := n1, n0
	if overGroup == 0 {
		nOver, nUnder = n0, n1
	}
	excess := math.Abs(gap)
	demote := int(math.Ceil(excess / 2 * nOver))   // positives -> 0 in over
	promote := int(math.Ceil(excess / 2 * nUnder)) // negatives -> 1 in under
	for _, i := range idx {
		if demote == 0 && promote == 0 {
			break
		}
		switch {
		case d.S[i] == overGroup && d.Y[i] == 1 && demote > 0:
			d.Y[i] = 0
			demote--
		case d.S[i] != overGroup && d.Y[i] == 0 && promote > 0:
			d.Y[i] = 1
			promote--
		}
	}
}

// NewZhaWuPSF returns the evaluated Zha-Wu^psf approach.
func NewZhaWuPSF(g *causal.Graph, model string) fair.Approach {
	return &fair.PreProcessed{
		ApproachName: "ZhaWu-PSF",
		Target:       []fair.Metric{fair.MetricTE},
		Mechanism:    &ZhaWu{Graph: g, PathSpecific: true},
		Model:        model,
		IncludeS:     true,
	}
}

// NewZhaWuDCE returns the evaluated Zha-Wu^dce approach.
func NewZhaWuDCE(g *causal.Graph, model string) fair.Approach {
	return &fair.PreProcessed{
		ApproachName: "ZhaWu-DCE",
		Target:       []fair.Metric{fair.MetricTE},
		Mechanism:    &ZhaWu{Graph: g, PathSpecific: false},
		Model:        model,
		IncludeS:     true,
	}
}
