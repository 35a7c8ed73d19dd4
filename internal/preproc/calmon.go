package preproc

import (
	"math"
	"sort"

	"fairbench/internal/dataset"
	"fairbench/internal/fair"
	"fairbench/internal/optimize"
	"fairbench/internal/rng"
)

// Calmon implements Calmon et al.'s optimized pre-processing: a randomized
// mapping of (X, Y) onto (X', Y') that (1) brings the label distribution of
// the two sensitive groups within a demographic-parity tolerance, (2) keeps
// the mapped joint distribution close to the original, and (3) bounds
// per-tuple distortion by only moving attribute values to adjacent
// discretization bins and penalizing label flips.
//
// The original uses a convex program over the full discretized joint; this
// implementation optimizes the same objective with projected gradient
// descent over per-group transition matrices whose rows live on the
// probability simplex — and inherits the original's cost profile: the
// number of cells (and hence runtime) grows exponentially with the number
// of attributes included (Section 4.3's scalability finding).
type Calmon struct {
	// Iters bounds the projected-gradient optimization (default 150).
	Iters int
	// Seed drives the randomized application of the mapping.
	Seed int64

	disc   *dataset.Discretizer
	attrs  []int       // chosen attribute columns
	cards  []int       // per chosen attribute bin counts
	nCells int         // product of cards
	binMid [][]float64 // representative value per (chosen attr, bin)
	trans  [2][][]float64
	// tgt holds every state's targets in one slab: state st's are
	// tgt[tgtOff[st]:tgtOff[st+1]] (see buildTargets).
	tgt      []target
	tgtOff   []int
	fitted   bool
	origMean [2]float64

	// Per-instance scratch reused by the repair-application and
	// TransformRow hot loops (each grid cell transforms through its own
	// fork; predictions are sequential within a cell).
	binScratch []int
	rowScratch []float64
	expScratch []float64
}

type target struct {
	cell, y int
	dist    float64 // distortion cost of moving to this target
}

// Calmon's per-attribute discretization granularity, the number of
// attributes entering the joint distribution (the most label-correlated
// ones), and the demographic-parity tolerance ε on the mapped labels.
const (
	calmonBins     int     = 3
	calmonMaxAttrs int     = 6
	calmonEpsilon  float64 = 0.02
)

// chooseAttrs picks the attributes most correlated with the label.
func (c *Calmon) chooseAttrs(d *dataset.Dataset) []int {
	type scored struct {
		j int
		r float64
	}
	var sc []scored
	my := 0.0
	for _, y := range d.Y {
		my += float64(y)
	}
	my /= float64(d.Len())
	for j := 0; j < d.Dim(); j++ {
		col := d.Column(j)
		var mx float64
		for _, v := range col {
			mx += v
		}
		mx /= float64(len(col))
		var cov, vx, vy float64
		for i, v := range col {
			dx := v - mx
			dy := float64(d.Y[i]) - my
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
	k := calmonMaxAttrs
	if k > len(sc) {
		k = len(sc)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = sc[i].j
	}
	sort.Ints(out)
	return out
}

// cellOf computes the joint bin code of a row over the chosen attributes.
func (c *Calmon) cellOf(row []float64) int {
	code, mult := 0, 1
	for k, j := range c.attrs {
		code += c.disc.Bin(j, row[j]) * mult
		mult *= c.cards[k]
	}
	return code
}

// binsInto decodes cell into out without allocating (out has len(attrs)).
func (c *Calmon) binsInto(cell int, out []int) {
	for k := range c.attrs {
		out[k] = cell % c.cards[k]
		cell /= c.cards[k]
	}
}

// buildTargets lays out the reachable (cell', y') targets of every state
// (cell, y) in one slab: the cell itself and every cell differing by ±1
// bin in one attribute (attributes in order, the lower neighbour first),
// crossed with both labels, with distortion = bin moves + 2·label flips.
// A state's self target is therefore its entry y. The slab is sized
// exactly: an attribute of card bins gives a lower and an upper
// neighbour to (card-1)/card of the cells each.
func (c *Calmon) buildTargets() {
	reach := c.nCells
	for _, card := range c.cards {
		reach += 2 * (c.nCells / card) * (card - 1)
	}
	c.tgt = make([]target, 0, 4*reach)
	c.tgtOff = make([]int, 2*c.nCells+1)
	cells := make([]int, 0, 2*len(c.attrs)+1)
	for cell := 0; cell < c.nCells; cell++ {
		cells = append(cells[:0], cell)
		rest, mult := cell, 1
		for _, card := range c.cards {
			b := rest % card
			rest /= card
			if b > 0 {
				cells = append(cells, cell-mult)
			}
			if b < card-1 {
				cells = append(cells, cell+mult)
			}
			mult *= card
		}
		for y := 0; y < 2; y++ {
			for _, cc := range cells {
				for yy := 0; yy < 2; yy++ {
					d := 0.0
					if cc != cell {
						d += 1
					}
					if yy != y {
						d += 2
					}
					c.tgt = append(c.tgt, target{cell: cc, y: yy, dist: d})
				}
			}
			c.tgtOff[2*cell+y+1] = len(c.tgt)
		}
	}
}

// targets returns state st's targets (a view of the slab).
func (c *Calmon) targets(st int) []target { return c.tgt[c.tgtOff[st]:c.tgtOff[st+1]] }

// Repair implements fair.Repairer.
func (c *Calmon) Repair(train *dataset.Dataset) (*dataset.Dataset, error) {
	if c.Iters == 0 {
		c.Iters = 150
	}
	c.disc = dataset.FitDiscretizer(train, calmonBins)
	c.attrs = c.chooseAttrs(train)
	c.cards = make([]int, len(c.attrs))
	c.nCells = 1
	for k, j := range c.attrs {
		c.cards[k] = c.disc.Cardinality(j)
		c.nCells *= c.cards[k]
	}

	// Representative value per (chosen attribute, bin): the mean of the
	// training values falling in the bin.
	c.binMid = make([][]float64, len(c.attrs))
	for k, j := range c.attrs {
		sums := make([]float64, c.cards[k])
		cnts := make([]float64, c.cards[k])
		for _, row := range train.X {
			b := c.disc.Bin(j, row[j])
			sums[b] += row[j]
			cnts[b]++
		}
		mids := make([]float64, c.cards[k])
		for b := range mids {
			if cnts[b] > 0 {
				mids[b] = sums[b] / cnts[b]
			}
		}
		c.binMid[k] = mids
	}

	// Empirical joint p_s(cell, y).
	nState := c.nCells * 2
	var p [2][]float64
	p[0] = make([]float64, nState)
	p[1] = make([]float64, nState)
	var gn [2]float64
	for i, row := range train.X {
		s := train.S[i]
		p[s][c.cellOf(row)*2+train.Y[i]]++
		gn[s]++
	}
	for s := 0; s < 2; s++ {
		for k := range p[s] {
			p[s][k] /= math.Max(gn[s], 1)
		}
		var pos float64
		for cell := 0; cell < c.nCells; cell++ {
			pos += p[s][cell*2+1]
		}
		c.origMean[s] = pos
	}

	c.buildTargets()
	// The two identity rows, one per label, long enough for any state:
	// all mass on the self target, entry y.
	var ident [2][]float64
	for y := range ident {
		ident[y] = make([]float64, 2*(2*len(c.attrs)+1))
		ident[y][y] = 1
	}

	for s := 0; s < 2; s++ {
		ps := p[s]
		// Only states with empirical mass enter the optimization. A
		// zero-mass state contributes nothing to any objective term and
		// receives zero gradient, so through every projected-gradient step
		// its transition row stays bit-for-bit at the identity
		// initialization (projecting an identity simplex row is an exact
		// no-op). Packing just the active rows makes each iteration
		// O(observed states) instead of O(attribute-domain product) — the
		// exponential blow-up the paper's Section 4.3 measures — while
		// computing the identical trajectory in the identical float order.
		var active []int
		for st := 0; st < nState; st++ {
			if ps[st] != 0 {
				active = append(active, st)
			}
		}
		offsets := make([]int, len(active)+1)
		for k, st := range active {
			offsets[k+1] = offsets[k] + c.tgtOff[st+1] - c.tgtOff[st]
		}
		theta := make([]float64, offsets[len(active)])
		// Initialize as identity: all mass on the self target.
		for k, st := range active {
			theta[offsets[k]+st%2] = 1
		}
		sOther := 1 - s
		// Ascending state indices where ps or the mapped q can be nonzero:
		// the active states and every target reachable from one. The
		// objective's distribution loops run over this support instead of
		// the full state space — every omitted state contributes an exact
		// 0.0 term (both q and ps are zero there), and the surviving terms
		// keep their ascending order, so each sum is bit-identical to the
		// full-space fold.
		inSupport := make([]bool, nState)
		for _, st := range active {
			inSupport[st] = true
			for _, t := range c.targets(st) {
				inSupport[t.cell*2+t.y] = true
			}
		}
		var support []int
		for st := 0; st < nState; st++ {
			if inSupport[st] {
				support = append(support, st)
			}
		}
		// Demographic-parity anchor; both groups move toward the overall
		// rate. Constant across the optimization, so computed once.
		overall := (c.origMean[0]*gn[0] + c.origMean[1]*gn[1]) / (gn[0] + gn[1])
		_ = sOther
		const lamDP, lamClose, lamDist = 600.0, 5.0, 1.0
		// Flattened per-theta-entry tables: everything the objective reads
		// per entry that is constant across iterations — the mapped state
		// index, source mass, distortion distance, positive-label flag, and
		// the constant distortion-gradient term lamDist·mass·dist (the same
		// product the per-eval loop computed; multiplying identical floats
		// is deterministic, so folding it here changes no bit). Walking
		// these dense arrays replaces the slice-of-struct target chase on
		// the optimizer's hottest path.
		nTheta := offsets[len(active)]
		tState := make([]int, nTheta)     // t.cell*2 + t.y
		tMass := make([]float64, nTheta)  // ps[source state]
		tDist := make([]float64, nTheta)  // t.dist
		tGrad0 := make([]float64, nTheta) // lamDist * mass * dist
		tPos := make([]bool, nTheta)      // t.y == 1
		for k, st := range active {
			mass := ps[st]
			for ti, t := range c.targets(st) {
				gi := offsets[k] + ti
				tState[gi] = t.cell*2 + t.y
				tMass[gi] = mass
				tDist[gi] = t.dist
				tGrad0[gi] = lamDist * mass * t.dist
				tPos[gi] = t.y == 1
			}
		}
		// Odd (positive-label) support states, for the qPos fold.
		var oddSupport []int
		for _, st := range support {
			if st%2 == 1 {
				oddSupport = append(oddSupport, st)
			}
		}
		q := make([]float64, nState) // mapped distribution, reused per eval
		obj := func(w []float64, grad []float64) float64 {
			for _, st := range support {
				q[st] = 0
			}
			// Mapped distribution q and its positive-label mass. The shared
			// product mass·w0 feeds both sums exactly as the nested loop's
			// q += mass*w0 and distortion += (mass*w0)*dist did.
			var distortion float64
			w = w[:nTheta]
			for gi, w0 := range w {
				mw := tMass[gi] * w0
				q[tState[gi]] += mw
				distortion += mw * tDist[gi]
			}
			var qPos float64
			for _, st := range oddSupport {
				qPos += q[st]
			}
			gap := qPos - overall
			viol := math.Max(0, math.Abs(gap)-calmonEpsilon)
			// Closeness of mapped to original distribution.
			var close float64
			for _, st := range support {
				dq := q[st] - ps[st]
				close += dq * dq
			}
			val := lamDist*distortion + lamDP*viol*viol + lamClose*close
			// Gradient: each entry is written exactly once, as the same
			// three-term sum (distortion + closeness + parity, in that
			// order, starting from zero) the accumulating loop produced.
			sign := 1.0
			if gap < 0 {
				sign = -1
			}
			dpCoef := lamDP * 2 * viol * sign
			grad = grad[:nTheta]
			for gi := range grad {
				g := tGrad0[gi]
				dq := q[tState[gi]] - ps[tState[gi]]
				g += lamClose * 2 * dq * tMass[gi]
				if viol > 0 && tPos[gi] {
					g += dpCoef * tMass[gi]
				}
				grad[gi] = g
			}
			return val
		}
		// Each row's descending order from its last projection seeds the
		// next one's sort (see optimize.ProjectSimplexFrom).
		order := make([]int32, nTheta)
		for k := range active {
			for i := offsets[k]; i < offsets[k+1]; i++ {
				order[i] = int32(i - offsets[k])
			}
		}
		project := func(w []float64) {
			for k := range active {
				lo, hi := offsets[k], offsets[k+1]
				optimize.ProjectSimplexFrom(w[lo:hi], order[lo:hi])
			}
		}
		theta, _ = optimize.GradientDescent(obj, theta, optimize.GDConfig{
			Step: 0.5, MaxIter: c.Iters, Project: project,
		})
		// Store the learned per-state rows as views of theta; states never
		// observed in this group keep the identity mapping the optimizer
		// would have left them with, a read-only view of the identity row
		// of their label.
		rows := make([][]float64, nState)
		for k, st := range active {
			rows[st] = theta[offsets[k]:offsets[k+1]:offsets[k+1]]
		}
		for st := 0; st < nState; st++ {
			if rows[st] == nil {
				n := c.tgtOff[st+1] - c.tgtOff[st]
				rows[st] = ident[st%2][:n:n]
			}
		}
		c.trans[s] = rows
	}
	c.fitted = true

	// Apply the randomized mapping to the training data.
	g := rng.New(c.Seed)
	out := train.Clone()
	for i, row := range out.X {
		s := train.S[i]
		st := c.cellOf(train.X[i])*2 + train.Y[i]
		tgt := c.targets(st)
		ti := g.Categorical(c.trans[s][st])
		c.applyCell(row, tgt[ti].cell)
		out.Y[i] = tgt[ti].y
	}
	return out, nil
}

// applyCell rewrites the chosen attributes of row to the representative
// values of the target cell.
func (c *Calmon) applyCell(row []float64, cell int) {
	if c.binScratch == nil {
		c.binScratch = make([]int, len(c.attrs))
	}
	c.binsInto(cell, c.binScratch)
	for k, j := range c.attrs {
		row[j] = c.binMid[k][c.binScratch[k]]
	}
}

// TransformRow implements fair.TestTransformer: test features move to the
// expected target cell representative (deterministic; labels are unknown
// at test time so the two label rows are averaged by the group's label
// rate). Per the TestTransformer contract the returned slice is scratch
// reused by the next call; callers copy before the next transform.
func (c *Calmon) TransformRow(x []float64, s int) []float64 {
	if !c.fitted {
		return x
	}
	out := append(c.rowScratch[:0], x...)
	c.rowScratch = out[:0]
	cell := c.cellOf(x)
	// Average the expected representative value over the two label rows
	// weighted by the group's original label distribution.
	wy1 := c.origMean[s]
	if c.expScratch == nil {
		c.expScratch = make([]float64, len(c.attrs))
	}
	if c.binScratch == nil {
		c.binScratch = make([]int, len(c.attrs))
	}
	exp, bins := c.expScratch, c.binScratch
	for k := range exp {
		exp[k] = 0
	}
	var norm float64
	for y := 0; y < 2; y++ {
		wy := wy1
		if y == 0 {
			wy = 1 - wy1
		}
		st := cell*2 + y
		for ti, t := range c.targets(st) {
			w := wy * c.trans[s][st][ti]
			c.binsInto(t.cell, bins)
			for k := range c.attrs {
				exp[k] += w * c.binMid[k][bins[k]]
			}
			norm += w
		}
	}
	if norm > 0 {
		for k, j := range c.attrs {
			out[j] = exp[k] / norm
		}
	}
	return out
}

// Fork implements fair.TestTransformer: the fork shares the fitted
// mapping and owns its bin, row and expectation scratch.
func (c *Calmon) Fork() fair.TestTransformer {
	f := *c
	f.binScratch, f.rowScratch, f.expScratch = nil, nil, nil
	return &f
}

// NewCalmon returns the evaluated Calmon^dp approach.
func NewCalmon(model string, seed int64) fair.Approach {
	return &fair.PreProcessed{
		ApproachName: "Calmon-DP",
		Target:       []fair.Metric{fair.MetricDI},
		Mechanism:    &Calmon{Seed: seed},
		Model:        model,
		IncludeS:     true,
	}
}
