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

// startBlock returns a freshly allocated start block for a b-vector
// block of length n, built in one call (see starter).
func startBlock(n, b int, opts TopKOptions) ([][]float64, error) {
	q := newBlock(b, n)
	var s starter
	if err := s.begin(q, opts); err != nil {
		return nil, err
	}
	if _, err := s.rows(b); err != nil {
		return nil, err
	}
	return q, nil
}

// gatherRows returns the block q restricted to the support coordinates.
func gatherRows(q [][]float64, support []int) [][]float64 {
	return gatherRowsInto(newBlock(len(q), len(support)), q, support)
}

// iterate runs one TopK run on op from the orthonormal start block q to
// its end (opts filled, support non-nil for the restricted run) and
// returns its k Ritz pairs with vectors of length n, or the error that
// stopped it.
func iterate(op SymOp, q [][]float64, k int, opts TopKOptions, support []int, n int) (*Eigen, error) {
	t := &TopK{op: op, k: k, n: n, opts: opts}
	t.run(op, q, support)
	for t.stage == topkIterate {
		if err := t.iterate(); err != nil {
			return nil, err
		}
	}
	if err := t.final(); err != nil {
		return nil, err
	}
	return t.Result(), nil
}
