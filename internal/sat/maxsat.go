// Package sat implements a weighted partial MaxSAT solver: hard clauses
// must be satisfied; soft clauses carry weights and the solver maximizes
// the total weight of satisfied soft clauses. The Salimi^jf_MaxSAT
// pre-processor encodes its minimal database repair (tuple insertions and
// deletions restoring the multi-valued dependency that expresses
// justifiable fairness) as such a formula.
//
// Two engines are provided: an exact DPLL-style branch-and-bound used for
// formulas up to a fixed variable budget, and a WalkSAT-style
// stochastic local search fallback for larger encodings — mirroring the
// exact/heuristic split of practical MaxSAT systems (the paper cites
// Borchers & Furman's two-phase exact algorithm).
package sat

import (
	"fairbench/internal/rng"
)

// Lit is a literal: positive values v mean variable v is true, negative
// values -v mean variable v is false. Variables are numbered from 1.
type Lit int

// Var returns the literal's variable index (1-based).
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Clause is a disjunction of literals.
type Clause []Lit

// Formula is a weighted partial MaxSAT instance.
type Formula struct {
	NumVars int
	Hard    []Clause
	Soft    []Clause
	Weights []float64 // parallel to Soft
}

// AddHard appends a hard clause.
func (f *Formula) AddHard(c ...Lit) {
	f.Hard = append(f.Hard, Clause(c))
	f.track(c)
}

// AddSoft appends a soft clause with the given weight.
func (f *Formula) AddSoft(w float64, c ...Lit) {
	f.Soft = append(f.Soft, Clause(c))
	f.Weights = append(f.Weights, w)
	f.track(c)
}

func (f *Formula) track(c []Lit) {
	for _, l := range c {
		if v := l.Var(); v > f.NumVars {
			f.NumVars = v
		}
	}
}

func satisfied(c Clause, assign []bool) bool {
	for _, l := range c {
		v := l.Var()
		if (l > 0) == assign[v] {
			return true
		}
	}
	return false
}

// Cost returns the total weight of soft clauses violated by assign, or
// -1 if any hard clause is violated. assign is 1-indexed.
func (f *Formula) Cost(assign []bool) float64 {
	for _, c := range f.Hard {
		if !satisfied(c, assign) {
			return -1
		}
	}
	var cost float64
	for i, c := range f.Soft {
		if !satisfied(c, assign) {
			cost += f.Weights[i]
		}
	}
	return cost
}

// Result is a MaxSAT solution.
type Result struct {
	Assignment []bool // 1-indexed; index 0 unused
	Cost       float64
}

// The largest variable count the exact branch-and-bound engine handles,
// and the number of flips the stochastic local search tries.
const (
	exactVarLimit    int = 24
	localSearchIters int = 20000
)

// Solve minimizes the violated soft weight subject to the hard clauses;
// seed seeds the local search. It returns an error-free Result with
// Cost = -1 only when the hard clauses are unsatisfiable under both
// engines.
func Solve(f *Formula, seed int64) Result {
	if f.NumVars <= exactVarLimit {
		return solveExact(f)
	}
	return solveLocal(f, seed)
}

// solveExact enumerates assignments with branch-and-bound pruning on the
// accumulated soft cost.
func solveExact(f *Formula) Result {
	n := f.NumVars
	assign := make([]bool, n+1)
	best := Result{Cost: -1}
	var rec func(v int, cost float64)
	rec = func(v int, cost float64) {
		if best.Cost >= 0 && cost >= best.Cost {
			return // bound: already worse than incumbent
		}
		if v > n {
			if fullCost := f.Cost(assign); fullCost >= 0 && (best.Cost < 0 || fullCost < best.Cost) {
				best.Cost = fullCost
				best.Assignment = append([]bool(nil), assign...)
			}
			return
		}
		for _, val := range [2]bool{true, false} {
			assign[v] = val
			// Early hard-clause violation check: a hard clause whose
			// variables are all assigned and unsatisfied prunes the branch.
			if violatedPrefix(f.Hard, assign, v) {
				continue
			}
			rec(v+1, cost+softPrefixCost(f, assign, v))
		}
	}
	rec(1, 0)
	return best
}

// violatedPrefix reports whether some hard clause is fully decided by
// variables <= v and unsatisfied.
func violatedPrefix(hard []Clause, assign []bool, v int) bool {
	for _, c := range hard {
		decided := true
		sat := false
		for _, l := range c {
			if l.Var() > v {
				decided = false
				break
			}
			if (l > 0) == assign[l.Var()] {
				sat = true
				break
			}
		}
		if decided && !sat {
			return true
		}
	}
	return false
}

// softPrefixCost returns the weight of soft clauses that become decided and
// violated exactly at variable v (their maximum variable is v).
func softPrefixCost(f *Formula, assign []bool, v int) float64 {
	var cost float64
	for i, c := range f.Soft {
		maxVar := 0
		sat := false
		for _, l := range c {
			if l.Var() > maxVar {
				maxVar = l.Var()
			}
			if l.Var() <= v && (l > 0) == assign[l.Var()] {
				sat = true
			}
		}
		if maxVar == v && !sat {
			cost += f.Weights[i]
		}
	}
	return cost
}

// solveLocal runs WalkSAT-style stochastic local search: start from a
// random assignment repaired toward hard-feasibility, then greedily flip
// variables that reduce (hard violations, soft cost) lexicographically,
// with random-walk moves to escape local minima.
func solveLocal(f *Formula, seed int64) Result {
	g := rng.New(seed)
	n := f.NumVars
	assign := make([]bool, n+1)
	for v := 1; v <= n; v++ {
		assign[v] = g.Float64() < 0.5
	}
	score := func(a []bool) (hardViol int, soft float64) {
		for _, c := range f.Hard {
			if !satisfied(c, a) {
				hardViol++
			}
		}
		for i, c := range f.Soft {
			if !satisfied(c, a) {
				soft += f.Weights[i]
			}
		}
		return hardViol, soft
	}
	curH, curS := score(assign)
	best := Result{Cost: -1}
	record := func() {
		if curH == 0 && (best.Cost < 0 || curS < best.Cost) {
			best.Cost = curS
			best.Assignment = append([]bool(nil), assign...)
		}
	}
	record()
	for iter := 0; iter < localSearchIters; iter++ {
		v := 1 + g.Intn(n)
		assign[v] = !assign[v]
		h, s := score(assign)
		improves := h < curH || (h == curH && s < curS)
		if improves || g.Float64() < 0.1 { // random-walk acceptance
			curH, curS = h, s
			record()
		} else {
			assign[v] = !assign[v] // revert
		}
	}
	return best
}
