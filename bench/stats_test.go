package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 5, 5}, 5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestPercentile(t *testing.T) {
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		in       []int64
		p        float64
		want     int64
		wantTail int
	}{
		{hundred, 50, 50, 50},
		{hundred, 99, 99, 1},
		{hundred, 100, 100, 0},
		{hundred, 0.1, 1, 99},
		{[]int64{5, 6, 7}, 50, 6, 1},
		{nil, 99, 0, 0},
	} {
		got, tail := percentile(tc.in, tc.p)
		if got != tc.want || tail != tc.wantTail {
			t.Errorf("percentile(n=%d, %v) = %d (tail %d), want %d (tail %d)",
				len(tc.in), tc.p, got, tail, tc.want, tc.wantTail)
		}
	}
}

func TestMAD(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{1, 1, 2, 2, 4, 6, 9}, 1},
		{[]float64{3, 3, 3}, 0},
		{[]float64{1, 2, 3, 4}, 1},
	} {
		if got := mad(tc.in); got != tc.want {
			t.Errorf("mad(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
