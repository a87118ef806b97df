package loadgen

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 < p ≤ 100) of sorted raw
// samples by the nearest-rank rule: the smallest sample with at least p
// percent of the samples at or below it. No bucketing, no interpolation.
func Percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	// The tolerance keeps a rank that is whole on paper (99.9 % of 1000)
	// from being pushed up by the binary representation of p.
	rank := int(math.Ceil(p*float64(len(sorted))/100 - 1e-9))
	return sorted[max(rank, 1)-1]
}

// Median returns the median of v (the mean of the two middle values when
// len(v) is even) without reordering v.
func Median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
