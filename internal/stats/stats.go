// Package stats provides the small statistical toolkit the detector
// needs: summary statistics, quantiles (for θ_p threshold calibration),
// histograms and online accumulators.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned when a statistic is requested over no data.
var ErrEmpty = errors.New("stats: empty data")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// Variance returns the unbiased sample variance of xs (n-1 denominator).
// A single observation has variance 0.
func Variance(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if len(xs) == 1 {
		return 0, nil
	}
	m, _ := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1), nil
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Quantile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics (type-7, the common default).
// This is the θ_p calibration primitive: the paper sets the detection
// threshold to the p-quantile of normal-set densities.
func Quantile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		return 0, fmt.Errorf("stats: Quantile: p=%g out of [0,1]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	h := p * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Welford is an online mean/variance accumulator (Welford's algorithm),
// used for streaming statistics over interval series without retaining
// the series.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations seen.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 before any observation).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running unbiased sample variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the running sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }
