package main

import (
	"math"
	"sort"
)

// nearestRank returns the q-quantile (0 < q ≤ 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it. It never interpolates, so every reported value was observed.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median is nearestRank at one half over an unsorted sample.
func median(xs []float64) float64 {
	return nearestRank(sortedCopy(xs), 0.5)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentiles are the candidate tail quantiles, highest first.
var tailPercentiles = []float64{0.99, 0.95, 0.9, 0.75, 0.5}

// minBeyond is how many samples must lie above a reported tail percentile
// for it to mean anything.
const minBeyond = 10

// highestSupported picks the highest candidate quantile, at most top, that
// leaves at least minBeyond samples above its nearest rank, and returns
// the quantile and its value over sorted. With too few samples for any
// candidate it falls back to the median.
func highestSupported(sorted []float64, top float64) (q, v float64) {
	n := len(sorted)
	for _, q := range tailPercentiles {
		if q > top {
			continue
		}
		rank := int(math.Ceil(q * float64(n)))
		if rank >= 1 && n-rank >= minBeyond {
			return q, sorted[rank-1]
		}
	}
	return 0.5, nearestRank(sorted, 0.5)
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
