package causal

import (
	"sort"

	"fairbench/internal/dataset"
)

// Effects holds the three causal quantities the paper evaluates: the total
// effect TE of the sensitive attribute S on the prediction, and its
// decomposition into the natural direct effect NDE (through the edge
// S -> Yhat) and natural indirect effect NIE (through mediator attributes).
type Effects struct {
	TE, NDE, NIE float64
}

// Estimator estimates interventional quantities of a classifier's
// predictions from empirical (discretized) data and the dataset's causal
// graph. All three benchmark datasets have a root sensitive attribute
// (Appendix C), so TE is identified by the observational contrast
// P(Yhat=1|S=1) - P(Yhat=1|S=0) (paper, Example 4), and NDE/NIE follow the
// mediator adjustment formulas of Zhang et al. (Theorems 4-5) quoted in the
// paper's appendix:
//
//	NDE = Σ_{w,z} P(Ŷ=1|S=1,W=w,Z=z) P(Z=z|S=0) P(W=w) - P(Ŷ=1|S=0)
//	NIE = Σ_{w,z} P(Ŷ=1|S=0,W=w,Z=z) P(Z=z|S=1) P(W=w) - P(Ŷ=1|S=0)
//
// where Z are the mediators (descendants of S) and W the remaining
// attributes. e.Strata(d).Effects(yhat) estimates all three for the
// predictions yhat on d.
type Estimator struct {
	graph *Graph
	disc  *dataset.Discretizer
	med   []int // attribute indices of mediators Z
	other []int // attribute indices of non-mediators W
}

// NewEstimator builds an estimator for dataset d under graph g. Numeric
// attributes are discretized into bins equal-frequency bins for
// stratification (the paper computes causal quantities on discretized
// attributes via DoWhy).
func NewEstimator(d *dataset.Dataset, g *Graph, bins int) *Estimator {
	disc := dataset.FitDiscretizer(d, bins)
	desc := g.Descendants(d.SName)
	est := &Estimator{graph: g, disc: disc}
	for j, a := range d.Attrs {
		if desc[a.Name] {
			est.med = append(est.med, j)
		} else {
			est.other = append(est.other, j)
		}
	}
	return est
}

// Mediators returns the attribute indices treated as mediators Z.
func (e *Estimator) Mediators() []int { return append([]int(nil), e.med...) }

// Strata is the prediction-independent half of the estimate on one
// dataset: each row's sensitive group and (s, z, w) stratum, the stratum
// totals, P(z|s), P(w), and the observed w strata of each (s, z) in
// ascending order. Building it costs the discretizer passes and the
// sorts, so a caller scoring many prediction vectors on one split builds
// it once and pays only Effects per vector. A Strata is read-only once
// built: concurrent Effects calls may share it.
type Strata struct {
	s      []int   // each row's sensitive group (the dataset's S)
	n0, n1 float64 // group sizes
	med    bool    // whether the graph has mediators
	// The rest is set only when med is.
	nz   int
	cell []int32 // per row: its (s, z, w) stratum's index into tot and wi
	sz   []int32 // per row: its (s, z) stratum, s*nz + z's sorted position
	// The (s, z, w) strata, ordered by (s, z) and then ascending w; those
	// of (s, z) stratum k are [off[k], off[k+1]).
	tot   []float64 // rows per stratum
	wi    []int32   // w's sorted position
	off   []int32
	szTot []float64 // rows per (s, z) stratum
	// P(Z=z|S=0), P(Z=z|S=1) by z's sorted position, and P(W=w) by w's.
	p0z, p1z, pw []float64
}

// Strata stratifies d's rows under the estimator's discretizer.
func (e *Estimator) Strata(d *dataset.Dataset) *Strata {
	n := d.Len()
	st := &Strata{s: d.S[:n], med: len(e.med) > 0}
	for _, s := range st.s {
		if s == 1 {
			st.n1++
		} else {
			st.n0++
		}
	}
	if n == 0 || !st.med {
		return st
	}
	// zKey/wKey are joint codes over the mediator and non-mediator
	// attribute subsets; the adjustment sums range over the observed
	// codes in ascending order.
	zKey, wKey := make([]int, n), make([]int, n)
	for i := 0; i < n; i++ {
		zKey[i], _ = e.disc.Code(d.X[i], e.med)
		wKey[i], _ = e.disc.Code(d.X[i], e.other)
	}
	zs, ws := sortedDistinct(zKey), sortedDistinct(wKey)
	nz, nw := len(zs), len(ws)
	st.nz = nz
	// Each row's (s, z, w) stratum as one ascending key; the sorted
	// distinct keys are the strata in (s, z, w) order.
	key := make([]int, n)
	st.sz = make([]int32, n)
	st.szTot, st.pw = make([]float64, 2*nz), make([]float64, nw)
	for i, s := range st.s {
		zi, wi := sort.SearchInts(zs, zKey[i]), sort.SearchInts(ws, wKey[i])
		sz := s*nz + zi
		st.sz[i] = int32(sz)
		st.szTot[sz]++
		st.pw[wi]++
		key[i] = sz*nw + wi
	}
	keys := sortedDistinct(key)
	st.cell = make([]int32, n)
	st.tot = make([]float64, len(keys))
	for i, k := range key {
		c := sort.SearchInts(keys, k)
		st.cell[i] = int32(c)
		st.tot[c]++
	}
	st.wi = make([]int32, len(keys))
	st.off = make([]int32, 2*nz+1)
	for c, k := range keys {
		st.wi[c] = int32(k % nw)
		st.off[k/nw+1] = int32(c + 1)
	}
	for k := 1; k < len(st.off); k++ { // (s, z) strata with no row
		st.off[k] = max(st.off[k], st.off[k-1])
	}
	st.p0z, st.p1z = make([]float64, nz), make([]float64, nz)
	for zi := 0; zi < nz; zi++ {
		if c := st.szTot[zi]; c > 0 {
			st.p0z[zi] = c / st.n0
		}
		if c := st.szTot[nz+zi]; c > 0 {
			st.p1z[zi] = c / st.n1
		}
	}
	for wi := range st.pw {
		st.pw[wi] /= float64(n)
	}
	return st
}

// sortedDistinct returns the distinct values of xs in ascending order.
func sortedDistinct(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	k := 0
	for i, v := range out {
		if i == 0 || v != out[k-1] {
			out[k] = v
			k++
		}
	}
	return out[:k]
}

// Effects computes TE, NDE, and NIE of S on the predictions yhat over the
// stratified rows (yhat[i] labels row i). It counts the positives of each
// group and stratum in one pass over the rows, each count summed in row
// order, and then runs the adjustment sums in ascending (z, w) order, so
// every float is the same whichever process or goroutine calls it.
func (st *Strata) Effects(yhat []int) Effects {
	n := len(st.s)
	if n == 0 {
		return Effects{}
	}

	// Observational contrasts: P(Ŷ=1 | S=s).
	var p0, p1 float64
	for i, s := range st.s {
		if s == 1 {
			p1 += float64(yhat[i])
		} else {
			p0 += float64(yhat[i])
		}
	}
	if st.n0 > 0 {
		p0 /= st.n0
	}
	if st.n1 > 0 {
		p1 /= st.n1
	}
	te := p1 - p0

	if !st.med {
		// No mediators: the entire effect is direct.
		return Effects{TE: te, NDE: te, NIE: 0}
	}

	// Positives per (s, z, w) stratum, for E[Ŷ|S,Z,W], and per (s, z),
	// the fallback E[Ŷ|S,Z] where an (s, z, w) stratum is unobserved.
	pos := make([]float64, len(st.tot))
	szPos := make([]float64, len(st.szTot))
	for i, y := range yhat[:n] {
		pos[st.cell[i]] += float64(y)
		szPos[st.sz[i]] += float64(y)
	}

	// Each (s, z) row of strata is merge-scanned against the ascending w
	// loop with a progressive fallback — E[Ŷ|S,Z,W], then E[Ŷ|S,Z], then
	// the group mean. The sums run in sorted stratum order: float addition
	// is not associative, so any other order would perturb the last bits
	// of NDE/NIE and break the benchmark's bit-reproducibility contract.
	nz := st.nz
	groupMean := [2]float64{p0, p1}
	var nde, nie float64
	for zi := 0; zi < nz; zi++ {
		i0, end0 := st.off[zi], st.off[zi+1]
		i1, end1 := st.off[nz+zi], st.off[nz+zi+1]
		for w, pw := range st.pw {
			wi := int32(w)
			for i1 < end1 && st.wi[i1] < wi {
				i1++
			}
			e1 := groupMean[1]
			if i1 < end1 && st.wi[i1] == wi && st.tot[i1] > 0 {
				e1 = pos[i1] / st.tot[i1]
			} else if t := st.szTot[nz+zi]; t > 0 {
				e1 = szPos[nz+zi] / t
			}
			for i0 < end0 && st.wi[i0] < wi {
				i0++
			}
			e0 := groupMean[0]
			if i0 < end0 && st.wi[i0] == wi && st.tot[i0] > 0 {
				e0 = pos[i0] / st.tot[i0]
			} else if t := st.szTot[zi]; t > 0 {
				e0 = szPos[zi] / t
			}
			nde += e1 * st.p0z[zi] * pw
			nie += e0 * st.p1z[zi] * pw
		}
	}
	nde -= p0
	nie -= p0
	return Effects{TE: te, NDE: nde, NIE: nie}
}
