package main

import (
	"math"
	"slices"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for an empty slice. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// exclusive method of Python's statistics.quantiles(xs, n=4), the rule
// the benchmark's stability check is defined with. A single value is its
// own quartiles; an empty slice yields NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sortedCopy(xs)
	n := len(s)
	q := func(i int) float64 {
		// Python clamps j to [1, n-1] before taking delta, so tiny
		// samples extrapolate; keep that to report the same numbers.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted and how many samples lie beyond it. A tail count under ten
// means the percentile rests on too few samples to compare runs by.
func percentile[T int32 | int64](sorted []T, p float64) (value T, tail int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// mad returns the median absolute deviation of xs from its median.
func mad(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}
