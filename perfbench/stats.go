package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// values: the smallest value with at least p% of the values at or below it.
// It returns NaN for an empty slice.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return sorted[nearestRank(p, len(sorted))-1]
}

// nearestRank is the 1-based rank of the nearest-rank p-th percentile among n
// values.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// minTail is the number of samples that must lie beyond a reported tail
// percentile for it to be more than a handful of outliers.
const minTail = 10

// tailSupported reports whether at least minTail of n samples lie beyond the
// nearest-rank p-th percentile.
func tailSupported(p float64, n int) bool {
	return n > 0 && n-nearestRank(p, n) >= minTail
}

// quartiles returns the first quartile, median and third quartile of values
// by the same rule as Python's statistics.quantiles(values, n=4) (the
// "exclusive" method), so spreads computed here match the ones computed
// from the printed results. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if ld == 1 {
		return data[0], data[0], data[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// median returns the middle value of values (the mean of the two middle ones
// for an even count), NaN for an empty slice.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	mid := len(data) / 2
	if len(data)%2 == 1 {
		return data[mid]
	}
	return (data[mid-1] + data[mid]) / 2
}

// ratio divides, returning 0 when the denominator is 0: a layer a workload
// does not exercise reports zero work rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
