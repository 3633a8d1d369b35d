package mat

// DenseOp adapts a symmetric *Matrix to the SymOp interface: the dense
// reference operator the subspace-iteration tests drive.
type DenseOp struct{ M *Matrix }

// Dim returns the matrix dimension.
func (d DenseOp) Dim() int { return d.M.Rows() }

// Apply computes dst[v] = M*src[v], reading each row of M once per
// block.
func (d DenseOp) Apply(dst, src [][]float64) { mulRowsBlock(d.M, dst, src) }

// sub returns a − b for same-shaped matrices.
func sub(a, b *Matrix) *Matrix {
	out := a.Clone()
	for i := range out.data {
		out.data[i] -= b.data[i]
	}
	return out
}

// scale multiplies every element of m by s in place.
func scale(m *Matrix, s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// trace returns the sum of m's diagonal.
func trace(m *Matrix) float64 {
	t := 0.0
	for i := 0; i < m.Rows(); i++ {
		t += m.At(i, i)
	}
	return t
}
