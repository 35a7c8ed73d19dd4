// Package stats provides the summary statistics and high-confidence bounds
// the benchmark relies on: means, variances, quantiles for the repair
// algorithms and stability analysis, plus the Hoeffding concentration
// bound that backs the Thomas (Seldonian) safety test.
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

// QuantileSorted returns the q-th quantile (0 ≤ q ≤ 1) of the ascending
// s using linear interpolation between order statistics (0 for empty s).
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

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
