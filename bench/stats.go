package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail percentile resting on fewer is one or two unlucky samples.
const minBeyond = 10

// tailPct is the tail percentile reported as latency.p90_ms. Every
// window yields 600 or more samples, so p98 would keep minBeyond samples
// beyond it, but past p95 the ingest tail is set by whether a GC cycle of
// the 0.9 GB server heap or a stall of the host lands on a sample: its
// p98 ranged 1.6–4.9 ms over ten runs. The highest percentile the sample
// supports is printed too, as latency.tail_ms.
const tailPct = 90

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or NaN for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(max(rank(p, len(s)), 1), len(s))-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
// The tolerance keeps 99.9% of 10000 at rank 9990 despite rounding.
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// supported reports whether n samples leave at least minBeyond samples
// beyond the p-th percentile.
func supported(p float64, n int) bool {
	return n-rank(p, n) >= minBeyond
}

// highestPercentile returns the highest of the conventional tail
// percentiles that n samples support, or 50 when none is.
func highestPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 98, 95, 90} {
		if supported(p, n) {
			return p
		}
	}
	return 50
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so a spread computed here matches one computed
// from the same values there. It needs at least two values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// frameLatencies turns the receiver's per-frame capture times into
// latencies. first[f] and done[f] are the times (ns, any common origin)
// at which frame f's first and last packets were captured; a negative
// done marks a frame that never completed and is skipped. Frame f is due
// at A + f/fps, where the anchor A is the minimum over frames of
// first[f] - f/fps: the earliest any frame's release could have been
// observed. Anchoring on one frame's first arrival instead would shift
// every latency by that one wake-up's lateness. slack is first - due,
// the pacing lateness of each frame's release.
func frameLatencies(first, done []int64, fps float64) (lat, slack []float64) {
	period := 1e9 / fps
	anchor := math.Inf(1)
	for f, t := range first {
		if t >= 0 {
			anchor = math.Min(anchor, float64(t)-float64(f)*period)
		}
	}
	for f := range first {
		if first[f] < 0 || done[f] < 0 {
			continue
		}
		due := anchor + float64(f)*period
		lat = append(lat, (float64(done[f])-due)/1e6)
		slack = append(slack, (float64(first[f])-due)/1e6)
	}
	return lat, slack
}

// failedFrac is failed operations over attempted ones; an empty run
// counts as wholly failed.
func failedFrac(attempted, failed int) float64 {
	if attempted <= 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}
