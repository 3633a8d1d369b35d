package mat

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refEigenSym is the cyclic Jacobi solve as it was written before the
// row slices: every entry of the working copy and of V is read and
// written with At and Set, V is kept untransposed, and the pairs are
// sorted by permuting a clone of V. It is kept as the reference
// EigenSym must match bit for bit.
func refEigenSym(a *Matrix) (*Eigen, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: EigenSym of %dx%d: %w", a.rows, a.cols, ErrShape)
	}
	if !a.IsSymmetric(1e-9 * (1 + a.MaxAbs())) {
		return nil, fmt.Errorf("mat: EigenSym: matrix is not symmetric: %w", ErrShape)
	}
	n := a.rows
	w := a.Clone()
	v := Identity(n)

	offDiag := func() float64 {
		s := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += w.At(i, j) * w.At(i, j)
			}
		}
		return s
	}
	scale := 1 + a.MaxAbs()
	tol := 1e-28 * scale * scale * float64(n*n)

	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		if offDiag() <= tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				for k := 0; k < n; k++ {
					wkp := w.At(k, p)
					wkq := w.At(k, q)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, q, s*wkp+c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk := w.At(p, k)
					wqk := w.At(q, k)
					w.Set(p, k, c*wpk-s*wqk)
					w.Set(q, k, s*wpk+c*wqk)
				}
				for k := 0; k < n; k++ {
					vkp := v.At(k, p)
					vkq := v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}

	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	refSortEigen(vals, v)
	return &Eigen{Values: vals, Vectors: v}, nil
}

// refSortEigen reorders eigenvalues in decreasing order, permuting the
// columns of a clone of v to match.
func refSortEigen(vals []float64, v *Matrix) {
	n := len(vals)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })

	oldVals := append([]float64(nil), vals...)
	oldV := v.Clone()
	for newJ, oldJ := range idx {
		vals[newJ] = oldVals[oldJ]
		for i := 0; i < v.rows; i++ {
			v.Set(i, newJ, oldV.At(i, oldJ))
		}
	}
}

// jacobiCase returns a random symmetric n×n matrix at the given scale
// with some exact-zero off-diagonal pairs, some repeated diagonal
// entries and some ±0 entries.
func jacobiCase(rng *rand.Rand, n int, scale float64) *Matrix {
	negZero := math.Copysign(0, -1)
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			x := scale * rng.NormFloat64()
			switch r := rng.Intn(8); {
			case i == j && r < 2 && i > 0:
				x = m.At(i-1, i-1) // a repeated diagonal
			case i != j && r == 0:
				x = 0
			case r == 1:
				x = negZero
			}
			m.Set(i, j, x)
			m.Set(j, i, x)
		}
	}
	return m
}

// TestEigenSymMatchesReference compares EigenSym with the At/Set
// reference bit for bit, values and vectors, on random symmetric
// matrices of every size from 1 to 32 at scales from 1e-150 to 1e150,
// plus a diagonal, a zero and a ±0 matrix.
func TestEigenSymMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	var cases []*Matrix
	for n := 1; n <= 32; n++ {
		for _, scale := range []float64{1e-150, 1e-20, 1, 1e20, 1e150} {
			cases = append(cases, jacobiCase(rng, n, scale))
		}
	}
	diag := New(6, 6)
	signed := New(5, 5)
	for i := 0; i < 6; i++ {
		diag.Set(i, i, float64(i%3))
	}
	for i := range signed.data {
		signed.data[i] = math.Copysign(0, -1)
	}
	cases = append(cases, diag, New(4, 4), signed)
	for ci, a := range cases {
		got, gotErr := EigenSym(a)
		want, wantErr := refEigenSym(a)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("case %d (n=%d): error %v, reference %v", ci, a.Rows(), gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		for i := range want.Values {
			if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
				t.Fatalf("case %d (n=%d): value %d = %v, reference %v", ci, a.Rows(), i, got.Values[i], want.Values[i])
			}
		}
		for i := range want.Vectors.data {
			if math.Float64bits(got.Vectors.data[i]) != math.Float64bits(want.Vectors.data[i]) {
				t.Fatalf("case %d (n=%d): vector entry %d = %v, reference %v", ci, a.Rows(), i, got.Vectors.data[i], want.Vectors.data[i])
			}
		}
	}
}

// ritz17 returns a 17×17 Rayleigh–Ritz matrix S = Q A Qᵀ of the shape
// EigenSymTopK solves once per iteration at L′ = 9 with 8 oversampling
// rows: A is a 64×64 covariance with a decaying spectrum and Q a random
// orthonormal start block, so S is far from diagonal.
func ritz17(tb testing.TB) *Matrix {
	const n, b = 64, 17
	rng := rand.New(rand.NewSource(501))
	f := New(n, n)
	for i := range f.data {
		f.data[i] = rng.NormFloat64() / float64(1+i%n)
	}
	a, err := Mul(f, f.T())
	if err != nil {
		tb.Fatal(err)
	}
	q, err := startBlock(n, b, TopKOptions{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	z := newBlock(b, n)
	DenseOp{M: a}.Apply(z, q)
	s := New(b, b)
	for i := range q {
		for j := i; j < b; j++ {
			v := Dot(q[j], z[i])
			s.Set(i, j, v)
			s.Set(j, i, v)
		}
	}
	return s
}

// BenchmarkEigenSymRitz17 times one Jacobi solve of the 17×17 Ritz
// matrix subspace iteration builds on device-shaped refreshes.
func BenchmarkEigenSymRitz17(b *testing.B) {
	s := ritz17(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EigenSym(s); err != nil {
			b.Fatal(err)
		}
	}
}
