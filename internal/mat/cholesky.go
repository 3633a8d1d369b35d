package mat

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular factor L of a symmetric
// positive-definite matrix A = L Lᵀ.
type Cholesky struct {
	n int
	l *Matrix // lower triangular, upper part zero
}

// NewCholesky factors the symmetric positive-definite matrix a.
// It returns an error wrapping ErrSingular if a pivot is not positive.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: Cholesky of %dx%d: %w", a.rows, a.cols, ErrShape)
	}
	n := a.rows
	l := New(n, n)
	for j := 0; j < n; j++ {
		// Diagonal element.
		d := a.At(j, j)
		lj := l.Row(j)
		for k := 0; k < j; k++ {
			d -= lj[k] * lj[k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("mat: Cholesky pivot %d is %g: %w", j, d, ErrSingular)
		}
		ljj := math.Sqrt(d)
		lj[j] = ljj
		// Column below the diagonal.
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			li := l.Row(i)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			li[j] = s / ljj
		}
	}
	return &Cholesky{n: n, l: l}, nil
}

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *Matrix { return c.l.Clone() }

// LogDet returns log(det(A)) = 2*sum(log(L[i][i])).
func (c *Cholesky) LogDet() float64 {
	s := 0.0
	for i := 0; i < c.n; i++ {
		s += math.Log(c.l.At(i, i))
	}
	return 2 * s
}

// MahalanobisSqScratch is MahalanobisSq with caller-owned scratch: the
// forward-substitution solution is written into y (length Size()), so
// steady-state callers allocate nothing.
func (c *Cholesky) MahalanobisSqScratch(d, y []float64) (float64, error) {
	if len(d) != c.n {
		return 0, fmt.Errorf("mat: MahalanobisSq: len %d, want %d: %w", len(d), c.n, ErrShape)
	}
	if len(y) != c.n {
		return 0, fmt.Errorf("mat: MahalanobisSq: scratch len %d, want %d: %w", len(y), c.n, ErrShape)
	}
	for i := 0; i < c.n; i++ {
		s := d[i]
		li := c.l.Row(i)
		for k := 0; k < i; k++ {
			s -= li[k] * y[k]
		}
		y[i] = s / li[i]
	}
	out := 0.0
	for _, v := range y {
		out += v * v
	}
	return out, nil
}
