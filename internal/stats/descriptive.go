// Package stats provides the small numerical toolbox shared by the
// analytical framework and the experiment harnesses: polynomial
// least-squares regression, descriptive statistics with confidence
// intervals, and deterministic pseudo-random helpers.
//
// Everything here is intentionally self-contained (stdlib only).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 if fewer than two
// samples).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Moment returns the k-th raw moment (1/n) Σ x^k.
func Moment(xs []float64, k int) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Pow(x, float64(k))
	}
	return s / float64(len(xs))
}

// Min returns the smallest element (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Summary aggregates the statistics the experiment harness reports for
// repeated runs: mean, standard deviation and a 95% confidence interval
// half-width, as in the paper's "20 repetitions, 95% confidence intervals"
// methodology (Section 6.1).
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CI95   float64 // half-width of the 95% confidence interval on the mean
}

// Summarize computes a Summary of xs. For n ≥ 30 the normal critical value
// 1.96 is used; for smaller n a Student-t critical value is looked up.
func Summarize(xs []float64) Summary {
	n := len(xs)
	s := Summary{N: n, Mean: Mean(xs), StdDev: StdDev(xs)}
	if n >= 2 {
		s.CI95 = tCritical95(n-1) * s.StdDev / math.Sqrt(float64(n))
	}
	return s
}

// tCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom.
func tCritical95(df int) float64 {
	// Table for small df, asymptote 1.96 beyond.
	table := []float64{
		0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
		2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
		2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
	}
	if df <= 0 {
		return math.NaN()
	}
	if df < len(table) {
		return table[df]
	}
	return 1.96
}

// Histogram bins xs into nbins equal-width bins over [lo, hi] and returns
// the per-bin counts. Values outside the range are clamped to the edge bins.
func Histogram(xs []float64, lo, hi float64, nbins int) []int {
	if nbins <= 0 || hi <= lo {
		panic("stats: invalid histogram parameters")
	}
	counts := make([]int, nbins)
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts
}
