// Package mat provides the dense linear algebra needed by the memory
// heat map detector: matrices and vectors, Cholesky and QR
// factorizations, symmetric eigendecomposition (full Jacobi and
// truncated subspace iteration), and a small SVD.
//
// The package is deliberately self-contained (stdlib only) and tuned for
// the shapes this project uses: full decompositions of small matrices
// (GMM covariances, L' <= 32) and top-k eigenpairs of moderately large
// symmetric matrices (the 1472x1472 MHM covariance).
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrShape is returned (wrapped) when operand dimensions are incompatible.
var ErrShape = errors.New("mat: incompatible dimensions")

// ErrSingular is returned (wrapped) when a factorization meets a matrix
// that is singular or not positive definite.
var ErrSingular = errors.New("mat: singular or non-positive-definite matrix")

// Matrix is a dense, row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// New returns a zeroed rows x cols matrix. It panics if either dimension
// is not positive: matrix shapes are program invariants, not runtime
// inputs.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: New(%d, %d): dimensions must be positive", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewOn returns a rows x cols matrix stored in back[:rows*cols], which
// it shares rather than copies, reusing storage a caller keeps; the
// entries are left as they are. It panics, as New does, on a
// dimension that is not positive, and on a back too short.
func NewOn(rows, cols int, back []float64) *Matrix {
	if rows <= 0 || cols <= 0 || len(back) < rows*cols {
		panic(fmt.Sprintf("mat: NewOn(%d, %d) over %d entries", rows, cols, len(back)))
	}
	return &Matrix{rows: rows, cols: cols, data: back[: rows*cols : rows*cols]}
}

// FromRows builds a matrix from a slice of equally sized rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("mat: FromRows: empty input: %w", ErrShape)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			return nil, fmt.Errorf("mat: FromRows: row %d has %d columns, want %d: %w", i, len(r), m.cols, ErrShape)
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m, nil
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
//
//mhm:hotpath
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
//
//mhm:hotpath
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
//
//mhm:hotpath
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// ColCopy returns a copy of column j.
//
//mhmlint:ignore deadapi the eigenvector and warm-start tests compare fitted columns through it
func (m *Matrix) ColCopy(j int) []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		ri := m.Row(i)
		for j, v := range ri {
			out.data[j*out.cols+i] = v
		}
	}
	return out
}

// Mul returns a*b.
//
//mhmlint:ignore deadapi the reference product the Cholesky, eigen and PCA tests check LLᵀ = A and UᵀU = I with
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("mat: Mul: %dx%d by %dx%d: %w", a.rows, a.cols, b.rows, b.cols, ErrShape)
	}
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := b.Row(k)
			for j, bv := range br {
				or[j] += av * bv
			}
		}
	}
	return out, nil
}

// MulVec returns a*x as a new vector.
//
//mhmlint:ignore deadapi the reference product the eigen and Gram-operator tests check Av = λv and Apply with
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	out := make([]float64, m.rows)
	if err := m.MulVecInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// MulVecInto computes a*x into dst (length Rows()) without allocating.
// Rows are dotted four at a time (Dot4); each entry is bit-identical to
// Dot(m.Row(i), x).
func (m *Matrix) MulVecInto(dst, x []float64) error {
	if len(x) != m.cols {
		return fmt.Errorf("mat: MulVec: vector len %d, matrix %dx%d: %w", len(x), m.rows, m.cols, ErrShape)
	}
	if len(dst) != m.rows {
		return fmt.Errorf("mat: MulVec: dst len %d, matrix %dx%d: %w", len(dst), m.rows, m.cols, ErrShape)
	}
	mulRowsBlock(m, [][]float64{dst}, [][]float64{x})
	return nil
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbs returns the largest absolute element value of m.
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// String renders the matrix for debugging; large matrices are summarized.
func (m *Matrix) String() string {
	const maxDim = 8
	if m.rows > maxDim || m.cols > maxDim {
		return fmt.Sprintf("Matrix(%dx%d, |max|=%.4g)", m.rows, m.cols, m.MaxAbs())
	}
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%9.4g", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	return b.String()
}
