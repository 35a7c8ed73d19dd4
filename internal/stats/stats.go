// Package stats provides the summary statistics and high-confidence bounds
// the benchmark relies on: means, variances, quantiles for the repair
// algorithms and stability analysis, plus the Hoeffding and Student-t
// concentration bounds that back the Thomas (Seldonian) safety test.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the unbiased sample variance of x (0 if len(x) < 2).
func Variance(x []float64) float64 {
	n := len(x)
	if n < 2 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(n-1)
}

// Std returns the unbiased sample standard deviation of x.
func Std(x []float64) float64 { return math.Sqrt(Variance(x)) }

// MinMax returns the smallest and largest entries of x.
func MinMax(x []float64) (lo, hi float64) {
	if len(x) == 0 {
		return 0, 0
	}
	lo, hi = x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of x using linear
// interpolation between order statistics. x need not be sorted.
func Quantile(x []float64, q float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return QuantileSorted(s, q)
}

// QuantileSorted is Quantile for pre-sorted input, avoiding the copy.
func QuantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Rank returns the fraction of entries in sorted slice s that are <= v,
// i.e. the empirical CDF evaluated at v.
func Rank(s []float64, v float64) float64 {
	if len(s) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(s, v)
	// advance over ties so equal values share the highest rank
	for idx < len(s) && s[idx] <= v {
		idx++
	}
	return float64(idx) / float64(len(s))
}

// HoeffdingUpper returns a (1-delta)-confidence upper bound on the mean of
// a [lo,hi]-bounded random variable given a sample mean over n points:
//
//	mean + (hi-lo) * sqrt(ln(1/delta) / (2n))
//
// This is the bound the Thomas (Seldonian) safety test uses to certify that
// the worst-case fairness violation stays below a threshold.
func HoeffdingUpper(mean float64, n int, lo, hi, delta float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return mean + (hi-lo)*math.Sqrt(math.Log(1/delta)/(2*float64(n)))
}

// TTestUpper returns an approximate (1-delta)-confidence upper bound on the
// mean using the Student-t inflation 'mean + t·s/sqrt(n)'. The t quantile is
// approximated by the normal quantile with a small-sample correction, which
// is accurate enough for the safety-test sizes used in the benchmark.
func TTestUpper(mean, std float64, n int, delta float64) float64 {
	if n <= 1 {
		return math.Inf(1)
	}
	z := NormalQuantile(1 - delta)
	// Cornish-Fisher style first-order correction toward the t distribution.
	t := z * (1 + (z*z+1)/(4*float64(n-1)))
	return mean + t*std/math.Sqrt(float64(n))
}

// NormalQuantile returns the p-th quantile of the standard normal
// distribution using the Acklam rational approximation (|err| < 1.15e-9).
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the Acklam approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow = 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > 1-plow:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// Confusion holds the four cells of a binary-classification confusion
// matrix (Figure 2 of the paper). Predictions and labels are 0/1.
type Confusion struct {
	TP, TN, FP, FN int
}

// Count tallies a confusion matrix from ground truth y and predictions yhat.
func Count(y, yhat []int) Confusion {
	var c Confusion
	for i := range y {
		c.Add(y[i], yhat[i])
	}
	return c
}

// Add records a single (truth, prediction) observation.
func (c *Confusion) Add(y, yhat int) {
	switch {
	case y == 1 && yhat == 1:
		c.TP++
	case y == 0 && yhat == 0:
		c.TN++
	case y == 0 && yhat == 1:
		c.FP++
	default:
		c.FN++
	}
}

// N returns the total number of observations.
func (c Confusion) N() int { return c.TP + c.TN + c.FP + c.FN }

// TPR returns the true-positive rate TP/(TP+FN); 0 when undefined.
func (c Confusion) TPR() float64 { return ratio(c.TP, c.TP+c.FN) }

// TNR returns the true-negative rate TN/(TN+FP); 0 when undefined.
func (c Confusion) TNR() float64 { return ratio(c.TN, c.TN+c.FP) }

// FPR returns the false-positive rate FP/(FP+TN); 0 when undefined.
func (c Confusion) FPR() float64 { return ratio(c.FP, c.FP+c.TN) }

// FNR returns the false-negative rate FN/(FN+TP); 0 when undefined.
func (c Confusion) FNR() float64 { return ratio(c.FN, c.FN+c.TP) }

// PositiveRate returns the fraction of positive predictions.
func (c Confusion) PositiveRate() float64 { return ratio(c.TP+c.FP, c.N()) }

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
