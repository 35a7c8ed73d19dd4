package causal_test

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"fairbench/internal/causal"
	"fairbench/internal/dataset"
	"fairbench/internal/rng"
	"fairbench/internal/synth"
)

// referenceEffects is the estimate as one pass over d: it fits the
// discretizer, splits the attributes into mediators and the rest, builds
// the stratum tables in hash maps and runs the adjustment sums, all per
// call. Strata.Effects must reproduce its TE, NDE and NIE bit for bit.
func referenceEffects(d *dataset.Dataset, g *causal.Graph, bins int, yhat []int) causal.Effects {
	disc := dataset.FitDiscretizer(d, bins)
	desc := g.Descendants(d.SName)
	var med, other []int
	for j, a := range d.Attrs {
		if desc[a.Name] {
			med = append(med, j)
		} else {
			other = append(other, j)
		}
	}

	n := d.Len()
	if n == 0 {
		return causal.Effects{}
	}

	// Observational contrasts: P(Ŷ=1 | S=s).
	var n0, n1, p0, p1 float64
	for i := 0; i < n; i++ {
		if d.S[i] == 1 {
			n1++
			p1 += float64(yhat[i])
		} else {
			n0++
			p0 += float64(yhat[i])
		}
	}
	if n0 > 0 {
		p0 /= n0
	}
	if n1 > 0 {
		p1 /= n1
	}
	te := p1 - p0

	if len(med) == 0 {
		// No mediators: the entire effect is direct.
		return causal.Effects{TE: te, NDE: te, NIE: 0}
	}

	// Empirical tables over strata. zKey/wKey are joint codes over the
	// mediator and non-mediator attribute subsets.
	type cell struct{ pos, tot float64 }
	condSZW := map[[3]int]*cell{} // (s, zKey, wKey) -> E[Ŷ]
	condSZ := map[[2]int]*cell{}  // (s, zKey)       -> fallback
	zGivenS := map[[2]int]float64{}
	zCountS := [2]float64{}
	wMarg := map[int]float64{}

	for i := 0; i < n; i++ {
		z, _ := disc.Code(d.X[i], med)
		w, _ := disc.Code(d.X[i], other)
		s := d.S[i]
		k3 := [3]int{s, z, w}
		c := condSZW[k3]
		if c == nil {
			c = &cell{}
			condSZW[k3] = c
		}
		c.pos += float64(yhat[i])
		c.tot++
		k2 := [2]int{s, z}
		c2 := condSZ[k2]
		if c2 == nil {
			c2 = &cell{}
			condSZ[k2] = c2
		}
		c2.pos += float64(yhat[i])
		c2.tot++
		zGivenS[[2]int{s, z}]++
		zCountS[s]++
		wMarg[w]++
	}
	for k := range zGivenS {
		if zCountS[k[0]] > 0 {
			zGivenS[k] /= zCountS[k[0]]
		}
	}
	for k := range wMarg {
		wMarg[k] /= float64(n)
	}

	// Collect the observed z strata (with P(z|S=0), P(z|S=1)) and observed
	// w strata (with P(w)); the adjustment sums range over their product.
	type zent struct {
		z        int
		p0z, p1z float64
	}
	zset := map[int]*zent{}
	for k, p := range zGivenS {
		e, ok := zset[k[1]]
		if !ok {
			e = &zent{z: k[1]}
			zset[k[1]] = e
		}
		if k[0] == 0 {
			e.p0z = p
		} else {
			e.p1z = p
		}
	}

	// Sum in sorted stratum order: map iteration order is randomized, and
	// float addition is not associative, so an unordered sum perturbs the
	// last bits of NDE/NIE from run to run — breaking the benchmark's
	// bit-reproducibility contract (and the serial↔parallel equivalence
	// the runner package tests assert).
	zs := make([]int, 0, len(zset))
	for z := range zset {
		zs = append(zs, z)
	}
	sort.Ints(zs)
	ws := make([]int, 0, len(wMarg))
	for w := range wMarg {
		ws = append(ws, w)
	}
	sort.Ints(ws)

	// The adjustment sum visits every (s, z, w) combination, so per-lookup
	// map hashing dominates it. Re-index the conditional tables first: the
	// (s, z) conditionals become dense arrays over sorted-stratum position,
	// and the (s, z, w) table becomes one wi-sorted sparse row per (s, zi)
	// — total entries are bounded by the tuple count, never nz·nw. The sums
	// below then merge-scan each sparse row against the ascending wi loop,
	// reading the same pos/tot pairs the map lookups returned, with the
	// same progressive fallback — E[Ŷ|S,Z,W], then E[Ŷ|S,Z], then the
	// group mean — so every term is bit-identical.
	nz := len(zs)
	zIdx := make(map[int]int, nz)
	for i, z := range zs {
		zIdx[z] = i
	}
	wIdx := make(map[int]int, len(ws))
	for i, w := range ws {
		wIdx[w] = i
	}
	type went struct {
		wi       int
		pos, tot float64
	}
	rows := make([][]went, 2*nz)
	for k, c := range condSZW {
		at := k[0]*nz + zIdx[k[1]]
		rows[at] = append(rows[at], went{wIdx[k[2]], c.pos, c.tot})
	}
	for _, r := range rows {
		sort.Slice(r, func(i, j int) bool { return r[i].wi < r[j].wi })
	}
	ey2Pos := make([]float64, 2*nz)
	ey2Tot := make([]float64, 2*nz)
	for k, c := range condSZ {
		at := k[0]*nz + zIdx[k[1]]
		ey2Pos[at], ey2Tot[at] = c.pos, c.tot
	}
	pwArr := make([]float64, len(ws))
	for wi, w := range ws {
		pwArr[wi] = wMarg[w]
	}

	groupMean := [2]float64{p0, p1}
	var nde, nie float64
	for zi, z := range zs {
		ze := zset[z]
		r0 := rows[zi]
		r1 := rows[nz+zi]
		i0, i1 := 0, 0
		for wi, pw := range pwArr {
			for i1 < len(r1) && r1[i1].wi < wi {
				i1++
			}
			e1 := groupMean[1]
			if i1 < len(r1) && r1[i1].wi == wi && r1[i1].tot > 0 {
				e1 = r1[i1].pos / r1[i1].tot
			} else if t := ey2Tot[nz+zi]; t > 0 {
				e1 = ey2Pos[nz+zi] / t
			}
			for i0 < len(r0) && r0[i0].wi < wi {
				i0++
			}
			e0 := groupMean[0]
			if i0 < len(r0) && r0[i0].wi == wi && r0[i0].tot > 0 {
				e0 = r0[i0].pos / r0[i0].tot
			} else if t := ey2Tot[zi]; t > 0 {
				e0 = ey2Pos[zi] / t
			}
			nde += e1 * ze.p0z * pw
			nie += e0 * ze.p1z * pw
		}
	}
	nde -= p0
	nie -= p0
	return causal.Effects{TE: te, NDE: nde, NIE: nie}
}

// effectsCase is one split and graph the differential tests stratify.
type effectsCase struct {
	name string
	d    *dataset.Dataset
	g    *causal.Graph
}

// effectsCases returns the fig7 test splits of the three benchmark
// datasets, Adult's under a graph with no mediators, and COMPAS's
// without its privileged group.
func effectsCases() []effectsCase {
	var cs []effectsCase
	for _, src := range []*synth.Source{synth.Adult(3000, 11), synth.COMPAS(1000, 12), synth.German(1000, 13)} {
		_, test := src.Data.Split(0.7, rng.New(5))
		cs = append(cs, effectsCase{src.Data.Name, test, src.Graph})
	}
	direct := causal.NewGraph()
	for _, a := range cs[0].d.Attrs {
		direct.AddNode(a.Name)
	}
	direct.MustEdge(cs[0].d.SName, cs[0].d.YName)
	cs = append(cs, effectsCase{"no mediators", cs[0].d, direct})
	unpriv, _ := cs[1].d.GroupIndices()
	return append(cs, effectsCase{"one group", cs[1].d.Subset(unpriv), cs[1].g})
}

// randomPredictions returns prediction vectors for n rows: constant 0
// and 1, random labels at several positive rates, and random integers
// near ±2⁵⁵, whose float sums round, so summing any count in another
// order than the reference's shows in the low bits.
func randomPredictions(n int, r *rand.Rand) [][]int {
	var out [][]int
	for _, rate := range []float64{0, 1, 0.03, 0.3, 0.5, 0.8} {
		for rep := 0; rep < 3; rep++ {
			yhat := make([]int, n)
			for i := range yhat {
				if r.Float64() < rate {
					yhat[i] = 1
				}
			}
			out = append(out, yhat)
		}
	}
	yhat := make([]int, n)
	for i := range yhat {
		yhat[i] = int(r.Int63n(1<<56) - 1<<55)
	}
	return append(out, yhat)
}

func sameBits(a, b causal.Effects) bool {
	return math.Float64bits(a.TE) == math.Float64bits(b.TE) &&
		math.Float64bits(a.NDE) == math.Float64bits(b.NDE) &&
		math.Float64bits(a.NIE) == math.Float64bits(b.NIE)
}

// TestStrataEffectsMatchReference holds Strata.Effects to the one-pass
// estimate bit for bit, under random predictions, on every case at the
// metrics' 4 bins and at 2.
func TestStrataEffectsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, c := range effectsCases() {
		for _, bins := range []int{4, 2} {
			st := causal.NewEstimator(c.d, c.g, bins).Strata(c.d)
			for pi, yhat := range randomPredictions(c.d.Len(), r) {
				got, want := st.Effects(yhat), referenceEffects(c.d, c.g, bins, yhat)
				if !sameBits(got, want) {
					t.Fatalf("%s, %d bins, predictions %d: Effects %+v, reference %+v", c.name, bins, pi, got, want)
				}
			}
		}
	}
}

// TestStrataSharedAcrossGoroutines: goroutines scoring their own
// predictions on one Strata at once (a grid's cells on one test split)
// each get the serial answer. Run under -race it also checks that
// Effects only reads the strata.
func TestStrataSharedAcrossGoroutines(t *testing.T) {
	c := effectsCases()[2]
	st := causal.NewEstimator(c.d, c.g, 4).Strata(c.d)
	preds := randomPredictions(c.d.Len(), rand.New(rand.NewSource(2)))
	want := make([]causal.Effects, len(preds))
	for i, yhat := range preds {
		want[i] = st.Effects(yhat)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, yhat := range preds {
				if got := st.Effects(yhat); !sameBits(got, want[i]) {
					t.Errorf("predictions %d: concurrent Effects %+v, serial %+v", i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkEffects times the causal metrics on fig7-cold's test split
// (Adult n=5000, seed 1): "strata" builds one split's strata, "effects"
// scores one prediction vector on built strata, and "per-call" does both,
// as metrics.ComputeFairness does on every call.
func BenchmarkEffects(b *testing.B) {
	src := synth.Adult(5000, 1)
	_, test := src.Data.Split(0.7, rng.New(1))
	yhat := randomPredictions(test.Len(), rand.New(rand.NewSource(1)))[9]
	est := causal.NewEstimator(test, src.Graph, 4)
	st := est.Strata(test)
	b.Run("strata", func(b *testing.B) {
		for b.Loop() {
			est.Strata(test)
		}
	})
	b.Run("effects", func(b *testing.B) {
		for b.Loop() {
			st.Effects(yhat)
		}
	})
	b.Run("per-call", func(b *testing.B) {
		for b.Loop() {
			causal.NewEstimator(test, src.Graph, 4).Strata(test).Effects(yhat)
		}
	})
}
