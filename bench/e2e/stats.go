package main

import (
	"math"
	"sort"
)

// standardPercentiles are the tail ranks a run may report, lowest first.
var standardPercentiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// percentile returns the nearest-rank p-quantile of sorted samples: the
// smallest sample with at least a p share of samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}

// beyond is the number of samples ranked strictly above the p-quantile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// highestPercentile returns the highest standard percentile with at least
// minBeyond samples beyond it, or 0 when even the median has fewer.
func highestPercentile(n, minBeyond int) float64 {
	best := 0.0
	for _, p := range standardPercentiles {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// median returns the middle of xs (the mean of the middle two for an even
// count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
