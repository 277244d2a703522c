package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile p (0 < p ≤ 100) of an
// ascending sample: the smallest value with at least p% of the sample
// at or below it. An empty sample yields NaN.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	return asc[rank(len(asc), p)-1]
}

// rank is the 1-based nearest rank of percentile p among n samples. The
// small subtraction keeps a product like 99.9/100*10000, which floating
// point makes a hair more than 9990, from being rounded up a rank.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// median is the 50th percentile with the usual midpoint for even sizes.
func median(xs []float64) float64 {
	asc := sorted(xs)
	n := len(asc)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return asc[n/2]
	}
	return (asc[n/2-1] + asc[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailLadder are the percentiles a timing may be reported at.
var tailLadder = []float64{75, 90, 95, 99, 99.9}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank percentile p.
func samplesBeyond(n int, p float64) int {
	return n - rank(n, p)
}

// supportedTail is the reporting rule: the highest ladder percentile
// that still has at least ten samples beyond it, or 50 when even p75
// has fewer.
func supportedTail(n int) float64 {
	best := 50.0
	for _, p := range tailLadder {
		if samplesBeyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// quartiles are Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), which is what the acceptance check applies to
// ten runs of a metric. Fewer than two values yield NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	if n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		// position i*(n+1)/4 on a 1-based scale, clamped as CPython does
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spreadShare is the interquartile distance as a share of the median.
func spreadShare(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}
