package mat

import (
	"fmt"
	"math"
	"sort"
)

// Eigen holds a symmetric eigendecomposition A = V diag(values) Vᵀ with
// eigenvalues in decreasing order and eigenvectors as columns of V.
type Eigen struct {
	Values  []float64
	Vectors *Matrix // n x n, column j pairs with Values[j]
}

// jacobiMaxSweeps bounds the Jacobi iteration; convergence on real inputs
// takes far fewer sweeps (usually < 15).
const jacobiMaxSweeps = 100

// EigenSym computes the full eigendecomposition of a symmetric matrix by
// the cyclic Jacobi method. It is intended for small-to-medium matrices
// (n up to a few hundred); for top-k eigenpairs of large matrices use
// EigenSymTopK.
func EigenSym(a *Matrix) (*Eigen, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: EigenSym of %dx%d: %w", a.rows, a.cols, ErrShape)
	}
	if !a.IsSymmetric(1e-9 * (1 + a.MaxAbs())) {
		return nil, fmt.Errorf("mat: EigenSym: matrix is not symmetric: %w", ErrShape)
	}
	n := a.rows
	w := a.Clone() // working copy, driven to diagonal
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = w.Row(i)
	}
	vt := Identity(n) // Vᵀ: row j accumulates eigenvector j

	offDiag := func() float64 {
		s := 0.0
		for i, row := range rows {
			for _, x := range row[i+1:] {
				s += x * x
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
			wp, vp := rows[p], vt.Row(p)
			for q := p + 1; q < n; q++ {
				apq := wp[q]
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				wq, vq := rows[q], vt.Row(q)
				app := wp[p]
				aqq := wq[q]
				// Rotation angle per Golub & Van Loan.
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c

				// Apply rotation J(p,q,θ) on both sides of w: columns p
				// and q of every row, then rows p and q.
				for _, wk := range rows {
					wkp, wkq := wk[p], wk[q]
					wk[p] = c*wkp - s*wkq
					wk[q] = s*wkp + c*wkq
				}
				for k, wpk := range wp {
					wqk := wq[k]
					wp[k] = c*wpk - s*wqk
					wq[k] = s*wpk + c*wqk
				}
				// Accumulate eigenvectors: columns p and q of V are rows
				// p and q of Vᵀ.
				for k, vkp := range vp {
					vkq := vq[k]
					vp[k] = c*vkp - s*vkq
					vq[k] = s*vkp + c*vkq
				}
			}
		}
	}

	diag := make([]float64, n)
	for i, row := range rows {
		diag[i] = row[i]
	}
	vals := make([]float64, n)
	v := New(n, n)
	for j, from := range decreasing(diag) {
		vals[j] = diag[from]
		for i, x := range vt.Row(from) {
			v.Set(i, j, x)
		}
	}
	return &Eigen{Values: vals, Vectors: v}, nil
}

// decreasing returns the permutation that sorts vals into decreasing
// order, equal values kept in index order: entry j is the index of the
// value that goes to position j.
func decreasing(vals []float64) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	return idx
}
