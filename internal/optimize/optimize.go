// Package optimize provides the numerical optimization substrate used by
// the in-processing approaches and the Calmon pre-processor: batch gradient
// descent, Adam, projected gradient over box/simplex constraints, and a
// penalty-method wrapper for smooth constrained problems (the stdlib
// replacement for the convex solvers the original implementations call).
package optimize

import (
	"math"

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
	// Tol stops early when the gradient infinity norm falls below it
	// (default 1e-6).
	Tol float64
	// Project, when non-nil, is applied to the iterate after every step
	// (projected gradient descent).
	Project func(w []float64)
}

func (c *GDConfig) defaults() {
	if c.Step == 0 {
		c.Step = 0.1
	}
	if c.MaxIter == 0 {
		c.MaxIter = 500
	}
	if c.Tol == 0 {
		c.Tol = 1e-6
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
		if matrix.NormInf(grad) < cfg.Tol {
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

// AdamConfig controls the Adam optimizer.
type AdamConfig struct {
	Step         float64 // default 0.05
	Beta1, Beta2 float64 // defaults 0.9, 0.999
	MaxIter      int     // default 800
	Tol          float64 // default 1e-7 on gradient infinity norm

	// Track, when non-nil, observes the iterate after each completed
	// update (so after iteration t the slice equals what a MaxIter=t run
	// would return, early stopping aside). It must not retain or mutate
	// the slice; callers snapshotting an intermediate iterate — the
	// batched Zafar warm start shares one trajectory between two
	// different-length fits this way — copy it. Observation only: the
	// update rule and stopping test never read anything Track does.
	Track func(t int, w []float64)
}

func (c *AdamConfig) defaults() {
	if c.Step == 0 {
		c.Step = 0.05
	}
	if c.Beta1 == 0 {
		c.Beta1 = 0.9
	}
	if c.Beta2 == 0 {
		c.Beta2 = 0.999
	}
	if c.MaxIter == 0 {
		c.MaxIter = 800
	}
	if c.Tol == 0 {
		c.Tol = 1e-7
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
		if matrix.NormInf(grad) < cfg.Tol {
			break
		}
		b1t := 1 - math.Pow(cfg.Beta1, float64(t))
		b2t := 1 - math.Pow(cfg.Beta2, float64(t))
		for i := range w {
			m[i] = cfg.Beta1*m[i] + (1-cfg.Beta1)*grad[i]
			v[i] = cfg.Beta2*v[i] + (1-cfg.Beta2)*grad[i]*grad[i]
			w[i] -= cfg.Step * (m[i] / b1t) / (math.Sqrt(v[i]/b2t) + 1e-8)
		}
		if cfg.Track != nil {
			cfg.Track(t, w)
		}
	}
	return w, val
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
// {w : w_i >= 0, sum w_i = 1} (Duchi et al. algorithm). The hot callers
// (Calmon's per-state transition rows) project short vectors millions of
// times per repair, so the descending-sort scratch lives on the stack for
// rows up to 64 entries and the projection allocates nothing.
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

// Bisect finds x in [lo,hi] with f(x) ~ 0 for monotone non-decreasing f.
func Bisect(f func(float64) float64, lo, hi float64, iters int) float64 {
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// GoldenSection minimizes a unimodal scalar function on [lo,hi].
func GoldenSection(f func(float64) float64, lo, hi float64, iters int) float64 {
	const phi = 0.6180339887498949
	a, b := lo, hi
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	fc, fd := f(c), f(d)
	for i := 0; i < iters; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = f(d)
		}
	}
	return (a + b) / 2
}
