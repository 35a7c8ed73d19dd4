package preproc

import (
	"math"
	"sort"

	"fairbench/internal/dataset"
	"fairbench/internal/fair"
	"fairbench/internal/nmf"
	"fairbench/internal/rng"
	"fairbench/internal/sat"
)

// Salimi implements Salimi et al.'s justifiable-fairness database repair.
// Attributes are partitioned into admissible (A — allowed to causally
// influence the label) and inadmissible (I — the sensitive attribute plus
// its proxies, e.g. race, sex, and marital/relationship status). The
// training database is minimally repaired by inserting and deleting tuples
// until Y is conditionally independent of I given A — equivalently, until
// within every admissible stratum a, the contingency table over (I, Y) has
// rank one (the multi-valued dependency Π_AY(D) ⋈ Π_YI(D) = D under the
// uniform-distribution reading).
//
// Two solver back-ends match the paper's variants:
//
//   - Salimi^jf_MaxSAT: per stratum, the common conditional label rate is
//     chosen by exact search and the per-cell repair actions (delete
//     surplus tuples vs. insert label-flipped duplicates) are selected by
//     a weighted partial MaxSAT solve whose soft-clause weights are the
//     action costs. The tuple-level encoding of the original is coarsened
//     to cell-level actions for tractability; the minimal-repair semantics
//     and the NP-hard cost profile are preserved.
//   - Salimi^jf_MatFac: per stratum, the (I × Y) count matrix is replaced
//     by its best rank-1 non-negative factorization, and tuples are
//     deleted or duplicated to match the rounded rank-1 targets.
type Salimi struct {
	// Inadmissible lists attribute names treated as I (the sensitive
	// attribute is always inadmissible).
	Inadmissible []string
	// UseMatFac selects the matrix-factorization variant.
	UseMatFac bool
	// Seed drives the NMF initialization and deterministic tie-breaks.
	Seed int64
}

// Salimi's discretization of numeric admissible attributes, and the cap on
// the admissible attributes entering the strata (the most
// label-correlated first), which bounds the blow-up.
const (
	salimiBins          int = 3
	salimiMaxAdmissible int = 4
)

// DefaultInadmissible is the paper's choice: race, gender, and
// marital/relationship status whenever present.
var DefaultInadmissible = []string{"Race", "Sex", "Marital_status", "Relationship"}

// Repair implements fair.Repairer.
func (sa *Salimi) Repair(train *dataset.Dataset) (*dataset.Dataset, error) {
	inadm := map[string]bool{}
	for _, n := range sa.Inadmissible {
		inadm[n] = true
	}
	var aCols, iCols []int
	for j, a := range train.Attrs {
		if inadm[a.Name] {
			iCols = append(iCols, j)
		} else {
			aCols = append(aCols, j)
		}
	}
	if len(aCols) > salimiMaxAdmissible {
		aCols = topCorrelated(train, aCols, salimiMaxAdmissible)
	}
	disc := dataset.FitDiscretizer(train, salimiBins)

	// Stratify tuples by admissible code; within a stratum, cell by
	// (inadmissible code, S).
	type key struct{ a int }
	strata := map[int]map[int][]int{} // aCode -> iCode -> tuple indices
	for t, row := range train.X {
		aCode, _ := disc.Code(row, aCols)
		iCode, _ := disc.Code(row, iCols)
		iCode = iCode*2 + train.S[t] // S itself is inadmissible
		m := strata[aCode]
		if m == nil {
			m = map[int][]int{}
			strata[aCode] = m
		}
		m[iCode] = append(m[iCode], t)
	}

	keep := make([]bool, train.Len())
	for i := range keep {
		keep[i] = true
	}
	var inserts []insertOp
	g := rng.New(sa.Seed)
	// Deterministic stratum order.
	var aCodes []int
	for a := range strata {
		aCodes = append(aCodes, a)
	}
	sort.Ints(aCodes)
	for _, a := range aCodes {
		cells := strata[a]
		if sa.UseMatFac {
			sa.repairMatFac(train, cells, keep, &inserts, g)
		} else {
			sa.repairMaxSAT(train, cells, keep, &inserts, g)
		}
	}

	// Materialize: kept tuples plus inserted (duplicated, label-adjusted)
	// tuples.
	var idx []int
	for i, k := range keep {
		if k {
			idx = append(idx, i)
		}
	}
	out := train.Subset(idx)
	for _, op := range inserts {
		out.X = append(out.X, append([]float64(nil), train.X[op.src]...))
		out.S = append(out.S, train.S[op.src])
		out.Y = append(out.Y, op.y)
	}
	return out, nil
}

type insertOp struct {
	src int // tuple to duplicate
	y   int // label of the inserted copy
}

// cellCounts tallies (negatives, positives) for a list of tuples.
func cellCounts(d *dataset.Dataset, idx []int) (n0, n1 int) {
	for _, t := range idx {
		if d.Y[t] == 1 {
			n1++
		} else {
			n0++
		}
	}
	return n0, n1
}

// repairOps returns the minimal delete/insert counts turning a cell with
// counts (n0, n1) into one whose positive rate is rho (within rounding):
// deletions remove surplus tuples of one label; insertions duplicate a
// tuple with the flipped label.
func repairOps(n0, n1 int, rho float64) (delPos, delNeg, insPos, insNeg int, cost int) {
	tot := n0 + n1
	if tot == 0 {
		return 0, 0, 0, 0, 0
	}
	r := float64(n1) / float64(tot)
	switch {
	case r > rho:
		// Too many positives: delete positives or insert negatives.
		var dp int
		if rho >= 1 {
			dp = 0
		} else {
			dp = int(math.Ceil((float64(n1) - rho*float64(tot)) / (1 - rho)))
		}
		if dp > n1 {
			dp = n1
		}
		var in int
		if rho <= 0 {
			in = n1 // cannot dilute to zero by insertion; delete instead
			return n1, 0, 0, 0, n1
		}
		in = int(math.Ceil(float64(n1)/rho)) - tot
		if in < 0 {
			in = 0
		}
		if dp <= in {
			return dp, 0, 0, 0, dp
		}
		return 0, 0, 0, in, in
	case r < rho:
		var dn int
		if rho <= 0 {
			dn = 0
		} else {
			dn = int(math.Ceil((rho*float64(tot) - float64(n1)) / rho))
		}
		if dn > n0 {
			dn = n0
		}
		var ip int
		if rho >= 1 {
			return 0, n0, 0, 0, n0
		}
		ip = int(math.Ceil(float64(n0)/(1-rho))) - tot
		if ip < 0 {
			ip = 0
		}
		if dn <= ip {
			return 0, dn, 0, 0, dn
		}
		return 0, 0, ip, 0, ip
	default:
		return 0, 0, 0, 0, 0
	}
}

// candidateRhos returns the candidate common label rates for a stratum:
// each cell's own rate plus the pooled rate, deduplicated.
func candidateRhos(d *dataset.Dataset, cells map[int][]int) []float64 {
	set := map[float64]bool{}
	var tot0, tot1 int
	for _, idx := range cells {
		n0, n1 := cellCounts(d, idx)
		tot0 += n0
		tot1 += n1
		if n0+n1 > 0 {
			set[float64(n1)/float64(n0+n1)] = true
		}
	}
	if tot0+tot1 > 0 {
		set[float64(tot1)/float64(tot0+tot1)] = true
	}
	out := make([]float64, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Float64s(out)
	return out
}

// repairMaxSAT chooses the cheapest common rate by exact search and uses
// the MaxSAT solver to pick per-cell actions.
func (sa *Salimi) repairMaxSAT(d *dataset.Dataset, cells map[int][]int, keep []bool, inserts *[]insertOp, g *rng.RNG) {
	if len(cells) < 2 {
		return
	}
	var iCodes []int
	for c := range cells {
		iCodes = append(iCodes, c)
	}
	sort.Ints(iCodes)

	bestRho, bestCost := -1.0, math.MaxInt64
	for _, rho := range candidateRhos(d, cells) {
		cost := 0
		for _, c := range iCodes {
			n0, n1 := cellCounts(d, cells[c])
			_, _, _, _, cc := repairOps(n0, n1, rho)
			cost += cc
		}
		if cost < bestCost {
			bestCost, bestRho = cost, rho
		}
	}
	if bestRho < 0 || bestCost == 0 {
		return
	}

	// Encode the per-cell action choice as weighted MaxSAT: variable v_c
	// true = delete-style repair, false = insert-style repair; soft
	// clauses carry the action costs so the optimum picks the cheaper mix.
	f := &sat.Formula{}
	type actions struct {
		delPos, delNeg, insPos, insNeg int
		delCost, insCost               int
	}
	acts := make([]actions, len(iCodes))
	for vi, c := range iCodes {
		n0, n1 := cellCounts(d, cells[c])
		dp, dn, ip, in, _ := repairOps(n0, n1, bestRho)
		a := actions{delPos: dp, delNeg: dn, insPos: ip, insNeg: in}
		// Reconstruct both options' costs for the encoding.
		a.delCost, a.insCost = optionCosts(n0, n1, bestRho)
		acts[vi] = a
		v := sat.Lit(vi + 1)
		if a.delCost > 0 {
			f.AddSoft(float64(a.delCost), -v) // violated when choosing delete
		}
		if a.insCost > 0 {
			f.AddSoft(float64(a.insCost), v) // violated when choosing insert
		}
		f.AddHard(v, -v) // tautology keeps every variable in the formula
	}
	res := sat.Solve(f, g.Int63())
	for vi, c := range iCodes {
		useDelete := true
		if res.Assignment != nil && vi+1 < len(res.Assignment) {
			useDelete = res.Assignment[vi+1]
		}
		a := acts[vi]
		if useDelete && a.delCost <= a.insCost || a.insCost == 0 {
			applyDeletes(d, cells[c], keep, a.delPos, a.delNeg)
		} else {
			applyInserts(d, cells[c], inserts, a.insPos, a.insNeg)
		}
	}
}

// optionCosts returns the cost of the pure-delete and pure-insert options
// for a cell at target rate rho.
func optionCosts(n0, n1 int, rho float64) (delCost, insCost int) {
	tot := n0 + n1
	if tot == 0 {
		return 0, 0
	}
	r := float64(n1) / float64(tot)
	switch {
	case r > rho:
		if rho >= 1 {
			return 0, 0
		}
		dp := int(math.Ceil((float64(n1) - rho*float64(tot)) / (1 - rho)))
		if dp > n1 {
			dp = n1
		}
		if rho <= 0 {
			return n1, math.MaxInt32
		}
		in := int(math.Ceil(float64(n1)/rho)) - tot
		if in < 0 {
			in = 0
		}
		return dp, in
	case r < rho:
		if rho <= 0 {
			return 0, 0
		}
		dn := int(math.Ceil((rho*float64(tot) - float64(n1)) / rho))
		if dn > n0 {
			dn = n0
		}
		if rho >= 1 {
			return n0, math.MaxInt32
		}
		ip := int(math.Ceil(float64(n0)/(1-rho))) - tot
		if ip < 0 {
			ip = 0
		}
		return dn, ip
	default:
		return 0, 0
	}
}

func applyDeletes(d *dataset.Dataset, idx []int, keep []bool, delPos, delNeg int) {
	for _, t := range idx {
		if delPos == 0 && delNeg == 0 {
			return
		}
		if !keep[t] {
			continue
		}
		if d.Y[t] == 1 && delPos > 0 {
			keep[t] = false
			delPos--
		} else if d.Y[t] == 0 && delNeg > 0 {
			keep[t] = false
			delNeg--
		}
	}
}

func applyInserts(d *dataset.Dataset, idx []int, inserts *[]insertOp, insPos, insNeg int) {
	if len(idx) == 0 {
		return
	}
	for k := 0; k < insPos; k++ {
		*inserts = append(*inserts, insertOp{src: idx[k%len(idx)], y: 1})
	}
	for k := 0; k < insNeg; k++ {
		*inserts = append(*inserts, insertOp{src: idx[k%len(idx)], y: 0})
	}
}

// repairMatFac replaces each stratum's (I × Y) count table with its best
// rank-1 non-negative approximation and repairs tuples toward the rounded
// targets.
func (sa *Salimi) repairMatFac(d *dataset.Dataset, cells map[int][]int, keep []bool, inserts *[]insertOp, g *rng.RNG) {
	if len(cells) < 2 {
		return
	}
	var iCodes []int
	for c := range cells {
		iCodes = append(iCodes, c)
	}
	sort.Ints(iCodes)
	m := make([][]float64, len(iCodes))
	for r, c := range iCodes {
		n0, n1 := cellCounts(d, cells[c])
		m[r] = []float64{float64(n0), float64(n1)}
	}
	approx := nmf.Rank1(m, 200, g.Int63())
	for r, c := range iCodes {
		n0, n1 := cellCounts(d, cells[c])
		t0 := int(math.Round(approx[r][0]))
		t1 := int(math.Round(approx[r][1]))
		if t1 < n1 {
			applyDeletes(d, cells[c], keep, n1-t1, 0)
		} else if t1 > n1 {
			applyInserts(d, cells[c], inserts, t1-n1, 0)
		}
		if t0 < n0 {
			applyDeletes(d, cells[c], keep, 0, n0-t0)
		} else if t0 > n0 {
			applyInserts(d, cells[c], inserts, 0, t0-n0)
		}
	}
}

// topCorrelated selects the k columns of cols most |corr|-related to Y.
func topCorrelated(d *dataset.Dataset, cols []int, k int) []int {
	type scored struct {
		j int
		r float64
	}
	my := 0.0
	for _, y := range d.Y {
		my += float64(y)
	}
	my /= float64(d.Len())
	var sc []scored
	for _, j := range cols {
		col := d.Column(j)
		var mx float64
		for _, v := range col {
			mx += v
		}
		mx /= float64(len(col))
		var cov, vx, vy float64
		for i, v := range col {
			dx, dy := v-mx, float64(d.Y[i])-my
			cov += dx * dy
			vx += dx * dx
			vy += dy * dy
		}
		r := 0.0
		if vx > 0 && vy > 0 {
			r = math.Abs(cov / math.Sqrt(vx*vy))
		}
		sc = append(sc, scored{j, r})
	}
	sort.Slice(sc, func(a, b int) bool { return sc[a].r > sc[b].r })
	out := make([]int, 0, k)
	for i := 0; i < k && i < len(sc); i++ {
		out = append(out, sc[i].j)
	}
	sort.Ints(out)
	return out
}

// NewSalimiMaxSAT returns the evaluated Salimi^jf_MaxSAT approach.
func NewSalimiMaxSAT(model string, seed int64) fair.Approach {
	return &fair.PreProcessed{
		ApproachName: "Salimi-JF-MaxSAT",
		Target:       []fair.Metric{fair.MetricTE},
		Mechanism:    &Salimi{Inadmissible: DefaultInadmissible, Seed: seed},
		Model:        model,
		IncludeS:     true,
	}
}

// NewSalimiMatFac returns the evaluated Salimi^jf_MatFac approach.
func NewSalimiMatFac(model string, seed int64) fair.Approach {
	return &fair.PreProcessed{
		ApproachName: "Salimi-JF-MatFac",
		Target:       []fair.Metric{fair.MetricTE},
		Mechanism:    &Salimi{Inadmissible: DefaultInadmissible, UseMatFac: true, Seed: seed},
		Model:        model,
		IncludeS:     true,
	}
}
