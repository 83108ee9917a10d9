package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile reads the p-th percentile (0..100) off an ascending slice,
// interpolating linearly between the two closest ranks. Raw samples only:
// the product's obs.Histogram has 13 buckets capped at 5000 ms, which is
// how itdos-load once printed p50 = p99 = 5000.00.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	if lo < 0 {
		return sorted[0]
	}
	frac := rank - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median is the 50th percentile of unsorted samples.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }
