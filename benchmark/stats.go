package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs: the
// smallest sample with at least p% of the samples at or below it. xs need
// not be sorted and is not modified. NaN for an empty input.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(max(nearestRank(p, len(s)), 1), len(s))-1]
}

// nearestRank is ceil(p% of n), proof against p/100*n landing a hair above
// a whole number (99.9% of 10000 is 9990, not 9991).
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// supportedPercentile picks, for a sample of n, the highest of the usual
// reporting percentiles that still leaves at least ten samples beyond it;
// a tail estimated from fewer is mostly noise. Falls back to the median.
func supportedPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 95, 99, 99.9} {
		if n-nearestRank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// roundPercentile is the benchmark's latency statistic (noise rule b): the
// p-th percentile of each round taken separately, then the median of those
// per-round values. A stall that hits one round moves one of the values the
// median is taken over, not the reported number.
func roundPercentile(rounds [][]float64, p float64) float64 {
	per := make([]float64, len(rounds))
	for i, r := range rounds {
		per[i] = percentile(r, p)
	}
	return median(per)
}

func flatten(rounds [][]float64) []float64 {
	var out []float64
	for _, r := range rounds {
		out = append(out, r...)
	}
	return out
}
