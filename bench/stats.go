package main

import (
	"math"
	"slices"
)

// median returns the middle of the values (mean of the two middle ones
// for an even count); NaN for none.
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// best returns the value on the good side of the sample: the smallest
// for a metric that is better lower, the largest otherwise; NaN for none.
// Every pass of a run replays the same feed through the same code, so what
// differs between the passes of one run is the host (another tenant on the
// core, a stolen time slice), and the host only ever takes time away: the
// best pass is the closest reading of the program itself.
func best(values []float64, better string) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	if better == "higher" {
		return slices.Max(values)
	}
	return slices.Min(values)
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), because
// that is what the acceptance spread is computed with. Fewer than two
// values have no spread: both quartiles are the value itself.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	slices.Sort(s)
	if len(s) < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending-sorted sample.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
