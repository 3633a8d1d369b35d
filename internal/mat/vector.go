package mat

import (
	"fmt"
	"math"
)

// Dot returns the inner product of two equal-length vectors. It panics on
// length mismatch: vector lengths are structural invariants here.
//
//mhm:hotpath
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		//mhmlint:ignore hotpath cold panic path; a length mismatch is a program bug
		panic(fmt.Sprintf("mat: Dot: lengths %d and %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	// Scaled accumulation avoids overflow for extreme values.
	max := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > max {
			max = a
		}
	}
	if max == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		t := x / max
		s += t * t
	}
	return max * math.Sqrt(s)
}

// Axpy adds s*x to y in place (y += s*x).
//
//mhm:hotpath
func Axpy(s float64, x, y []float64) {
	if len(x) != len(y) {
		//mhmlint:ignore hotpath cold panic path; a length mismatch is a program bug
		panic(fmt.Sprintf("mat: Axpy: lengths %d and %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += s * v
	}
}

// Dot4 returns the inner products of x with a, b, c and d in one pass
// over x. The four accumulator chains are independent, so the loop is
// bound by multiply-add throughput rather than by the latency of one
// add chain as Dot is; each chain folds in ascending index with the
// same multiply-then-add as Dot, so s0 is bit-identical to Dot(x, a),
// and so on. It panics on length mismatch, like Dot.
//
//mhm:deterministic
//mhm:hotpath
func Dot4(x, a, b, c, d []float64) (s0, s1, s2, s3 float64) {
	n := len(x)
	if len(a) != n || len(b) != n || len(c) != n || len(d) != n {
		panic("mat: Dot4: length mismatch")
	}
	for i, v := range x {
		s0 += v * a[i]
		s1 += v * b[i]
		s2 += v * c[i]
		s3 += v * d[i]
	}
	return s0, s1, s2, s3
}

// Axpy4 adds s0*a + s1*b + s2*c + s3*d to y in place, folding the four
// terms into each element left to right: every element sees exactly the
// updates of Axpy(s0, a, y) followed by Axpy(s1, b, y), Axpy(s2, c, y)
// and Axpy(s3, d, y), so the result is bit-identical to those four calls
// while y is loaded and stored once instead of four times. It panics on
// length mismatch, like Axpy.
//
//mhm:deterministic
//mhm:hotpath
func Axpy4(y []float64, s0, s1, s2, s3 float64, a, b, c, d []float64) {
	n := len(y)
	if len(a) != n || len(b) != n || len(c) != n || len(d) != n {
		panic("mat: Axpy4: length mismatch")
	}
	for i, v := range y {
		v += s0 * a[i]
		v += s1 * b[i]
		v += s2 * c[i]
		v += s3 * d[i]
		y[i] = v
	}
}

// Normalize scales v to unit Euclidean norm in place and returns the
// original norm. A zero vector is left unchanged and 0 is returned.
func Normalize(v []float64) float64 {
	n := Norm2(v)
	if n == 0 {
		return 0
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
	return n
}

// DistEuclid returns the Euclidean distance between a and b.
func DistEuclid(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: DistEuclid: lengths %d and %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
