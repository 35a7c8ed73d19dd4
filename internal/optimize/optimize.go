// Package optimize provides the numerical optimization substrate used by
// the in-processing approaches and the Calmon pre-processor: batch gradient
// descent, Adam, projected gradient over box/simplex constraints, and a
// penalty-method wrapper for smooth constrained problems (the stdlib
// replacement for the convex solvers the original implementations call).
package optimize

import (
	"math"
	"sync"

	"fairbench/internal/matrix"
)

// Objective evaluates a smooth function and its gradient at w. The gradient
// slice is owned by the caller and must be fully overwritten.
type Objective func(w []float64, grad []float64) float64

// GDConfig controls gradient-based minimization.
type GDConfig struct {
	// Step is the initial learning rate (default 0.1).
	Step float64
	// MaxIter bounds the number of iterations (default 500).
	MaxIter int
	// Project, when non-nil, is applied to the iterate after every step
	// (projected gradient descent).
	Project func(w []float64)
}

// gdTol stops GradientDescent early when the gradient's infinity norm
// falls below it.
const gdTol float64 = 1e-6

func (c *GDConfig) defaults() {
	if c.Step == 0 {
		c.Step = 0.1
	}
	if c.MaxIter == 0 {
		c.MaxIter = 500
	}
}

// GradientDescent minimizes f starting from w0 using backtracking line
// search; it returns the final iterate and objective value. The candidate
// iterate and gradient buffers are allocated once and reused across every
// backtracking trial (an accepted candidate is swapped in, not copied), so
// the loop allocates nothing per iteration — the Objective contract that
// the gradient is fully overwritten is what makes the reuse sound.
func GradientDescent(f Objective, w0 []float64, cfg GDConfig) ([]float64, float64) {
	cfg.defaults()
	w := matrix.Clone(w0)
	grad := make([]float64, len(w))
	val := f(w, grad)
	cand := make([]float64, len(w))
	cg := make([]float64, len(w))
	step := cfg.Step
	for iter := 0; iter < cfg.MaxIter; iter++ {
		if normInfBelow(grad, gdTol) {
			break
		}
		// Backtracking: halve the step until the objective decreases.
		improved := false
		for t := 0; t < 30; t++ {
			copy(cand, w)
			matrix.Axpy(-step, grad, cand)
			if cfg.Project != nil {
				cfg.Project(cand)
			}
			cv := f(cand, cg)
			if cv < val {
				w, cand = cand, w
				grad, cg = cg, grad
				val = cv
				improved = true
				step *= 1.2 // cautiously re-grow
				break
			}
			step /= 2
			if step < 1e-14 {
				break
			}
		}
		if !improved {
			break
		}
	}
	return w, val
}

// Adam's decay rates β₁ and β₂ (Kingma and Ba's defaults), its stopping
// tolerance on the gradient's infinity norm, and its default MaxIter;
// biasTables holds the corrections the rates imply. The rates are typed:
// 1-adamBeta1 then folds to the float64 that 1 - β₁ computes at run
// time, where an untyped 0.9 would fold to exactly 0.1 and move every
// fit's bits.
const (
	adamBeta1        float64 = 0.9
	adamBeta2        float64 = 0.999
	adamTol          float64 = 1e-7
	defaultAdamIters int     = 800
)

// AdamConfig controls the Adam optimizer.
type AdamConfig struct {
	Step    float64 // default 0.05
	MaxIter int     // default 800
}

func (c *AdamConfig) defaults() {
	if c.Step == 0 {
		c.Step = 0.05
	}
	if c.MaxIter == 0 {
		c.MaxIter = defaultAdamIters
	}
}

// Adam minimizes f with the Adam update rule; robust on the non-convex
// surrogates (adversarial training, DCCP-style subproblems) where plain
// gradient descent stalls.
func Adam(f Objective, w0 []float64, cfg AdamConfig) ([]float64, float64) {
	cfg.defaults()
	w := matrix.Clone(w0)
	m := make([]float64, len(w))
	v := make([]float64, len(w))
	grad := make([]float64, len(w))
	var val float64
	for t := 1; t <= cfg.MaxIter; t++ {
		val = f(w, grad)
		if normInfBelow(grad, adamTol) {
			break
		}
		b1t := biasCorrection(adamBeta1, t)
		b2t := biasCorrection(adamBeta2, t)
		for i := range w {
			m[i] = adamBeta1*m[i] + (1-adamBeta1)*grad[i]
			v[i] = adamBeta2*v[i] + (1-adamBeta2)*grad[i]*grad[i]
			w[i] -= cfg.Step * (m[i] / b1t) / (math.Sqrt(v[i]/b2t) + 1e-8)
		}
	}
	return w, val
}

// normInfBelow reports whether the infinity norm of g is below tol —
// the maximum over |g[i]|, floored at 0 and skipping NaN components,
// compared with <. It stops at the first component that is not below
// tol, so a gradient far from converged costs one comparison instead of
// a scan. tol <= 0 (or NaN) reports false, as the norm's 0 floor is
// never below it.
func normInfBelow(g []float64, tol float64) bool {
	if !(tol > 0) {
		return false
	}
	for _, v := range g {
		if math.Abs(v) >= tol {
			return false
		}
	}
	return true
}

// biasTables holds 1-β^t for β₁ and β₂ at t = 1 up to the default
// MaxIter, which no caller exceeds: each entry is the math.Pow value
// Adam's loop would compute at step t. Built on first use; read-only
// after.
var biasTables = sync.OnceValue(func() *[2][defaultAdamIters]float64 {
	var tab [2][defaultAdamIters]float64
	for t := 1; t <= defaultAdamIters; t++ {
		tab[0][t-1] = 1 - math.Pow(adamBeta1, float64(t))
		tab[1][t-1] = 1 - math.Pow(adamBeta2, float64(t))
	}
	return &tab
})

// biasCorrection returns Adam's 1-β^t for beta = adamBeta1 or adamBeta2,
// from biasTables when it holds the value.
func biasCorrection(beta float64, t int) float64 {
	if t > defaultAdamIters {
		return 1 - math.Pow(beta, float64(t))
	}
	if beta == adamBeta1 {
		return biasTables()[0][t-1]
	}
	return biasTables()[1][t-1]
}

// Constraint is a smooth inequality constraint c(w) <= 0 with gradient.
type Constraint func(w []float64, grad []float64) float64

// PenaltyConfig controls penalty-method constrained minimization.
type PenaltyConfig struct {
	// Rho0 is the initial penalty weight (default 1).
	Rho0 float64
	// RhoGrowth multiplies the penalty between outer iterations (default 5).
	RhoGrowth float64
	// Outer is the number of outer penalty iterations (default 6).
	Outer int
	// Inner configures the unconstrained solves.
	Inner AdamConfig
}

// MinimizePenalty solves min f(w) subject to c_j(w) <= 0 for all j by
// minimizing f + rho * sum_j max(0, c_j)^2 with increasing rho. It is the
// workhorse behind the Zafar and Celis constrained formulations.
//
// Call-order contract: every objective evaluation invokes f first and then
// each constraint, in slice order, all at the same iterate, and every
// constraint is evaluated on every call (a satisfied constraint merely
// contributes nothing). Callers rely on this to share per-iterate state —
// a fused objective can compute the affine scores once in f and let the
// constraint closures read them (see the Zafar fits) — so the order is
// part of this function's API, not an implementation detail.
func MinimizePenalty(f Objective, cons []Constraint, w0 []float64, cfg PenaltyConfig) []float64 {
	if cfg.Rho0 == 0 {
		cfg.Rho0 = 1
	}
	if cfg.RhoGrowth == 0 {
		cfg.RhoGrowth = 5
	}
	if cfg.Outer == 0 {
		cfg.Outer = 6
	}
	w := matrix.Clone(w0)
	rho := cfg.Rho0
	cgrad := make([]float64, len(w0))
	for outer := 0; outer < cfg.Outer; outer++ {
		obj := func(x []float64, grad []float64) float64 {
			val := f(x, grad)
			for _, c := range cons {
				cv := c(x, cgrad)
				if cv > 0 {
					val += rho * cv * cv
					matrix.Axpy(2*rho*cv, cgrad, grad)
				}
			}
			return val
		}
		w, _ = Adam(obj, w, cfg.Inner)
		rho *= cfg.RhoGrowth
	}
	return w
}

// ProjectSimplex projects w in place onto the probability simplex
// {w : w_i >= 0, sum w_i = 1} (Duchi et al. algorithm). The descending-
// sort scratch lives on the stack for rows up to 64 entries, so the
// projection allocates nothing.
func ProjectSimplex(w []float64) {
	n := len(w)
	if n == 0 {
		return
	}
	// Sort a copy descending.
	var ubuf [64]float64
	var u []float64
	if n <= len(ubuf) {
		u = ubuf[:n]
	} else {
		u = make([]float64, n)
	}
	copy(u, w)
	for i := 1; i < n; i++ { // insertion sort: n is small in our uses
		for j := i; j > 0 && u[j] > u[j-1]; j-- {
			u[j], u[j-1] = u[j-1], u[j]
		}
	}
	projectSorted(w, u)
}

// ProjectSimplexFrom is ProjectSimplex with its descending sort started
// from order, a permutation of w's indices; on return order lists w's
// indices by descending value. The hot caller (Calmon's per-state
// transition rows, projected millions of times per repair) passes each
// row's order from its previous projection, which gradient steps barely
// change, so the insertion sort runs in near-linear time. The result is
// ProjectSimplex's bit for bit: without NaN every starting order sorts
// to the same values (the only equal values with different bits, +0 and
// −0, add and subtract alike in the threshold pass), and a row holding a
// NaN, which the comparisons cannot order, is projected by
// ProjectSimplex from w's own order, leaving order as it was.
func ProjectSimplexFrom(w []float64, order []int32) {
	n := len(w)
	if n == 0 {
		return
	}
	var ubuf [64]float64
	var u []float64
	if n <= len(ubuf) {
		u = ubuf[:n]
	} else {
		u = make([]float64, n)
	}
	order = order[:n]
	for k, i := range order {
		v := w[i]
		if v != v {
			ProjectSimplex(w)
			return
		}
		u[k] = v
	}
	for i := 1; i < n; i++ {
		v, o := u[i], order[i]
		j := i
		for ; j > 0 && v > u[j-1]; j-- {
			u[j], order[j] = u[j-1], order[j-1]
		}
		u[j], order[j] = v, o
	}
	projectSorted(w, u)
}

// projectSorted finishes a simplex projection of w given u, w's values
// sorted descending: it finds the threshold theta and clips w - theta at
// zero.
func projectSorted(w, u []float64) {
	n := len(u)
	var css float64
	rho := -1
	var theta float64
	for i := 0; i < n; i++ {
		css += u[i]
		t := (css - 1) / float64(i+1)
		if u[i]-t > 0 {
			rho = i
			theta = t
		}
	}
	if rho < 0 {
		for i := range w {
			w[i] = 1 / float64(n)
		}
		return
	}
	for i := range w {
		if v := w[i] - theta; v > 0 {
			w[i] = v
		} else {
			w[i] = 0
		}
	}
}
