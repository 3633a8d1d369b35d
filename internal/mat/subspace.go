package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// SymOp is a linear operator x -> A x for a symmetric positive
// semi-definite A that may be cheaper to apply than to materialize
// (e.g. a covariance C = (1/N) Φ Φᵀ applied as Φ (Φᵀ x) / N). It is
// applied to a block of vectors at a time, so an implementation streams
// its stored rows once per block instead of once per vector.
type SymOp interface {
	// Dim returns the dimension n of the operator.
	Dim() int
	// Apply computes dst[v] = A*src[v] for every block vector v. dst and
	// src have the same length, every vector has length Dim, and no dst
	// vector aliases a src vector. Each dst[v] must be bit-identical to
	// applying the operator to the block {src[v]} alone, so callers may
	// split a block into ranges freely.
	Apply(dst, src [][]float64)
}

// Restricter is a SymOp whose matrix is exactly zero outside a known
// set of coordinates, its support. EigenSymTopK runs subspace iteration
// on the support alone when the operator offers it.
type Restricter interface {
	SymOp
	// Restrict returns the support in ascending order and the same
	// operator built on its data gathered onto those coordinates: for a
	// finite block x, sub.Apply of x gathered onto the support is
	// bit-identical to Apply of x, gathered, and whenever that output is
	// finite Apply leaves every coordinate off the support at exactly +0.
	// sub is nil when the support is empty or all of Dim, or when the
	// data holds a NaN or ±Inf (0·∞ is NaN, so the zeros would matter).
	Restrict() (support []int, sub SymOp)
}

// mulRowsBlock sets dst[v][i] = Dot(m.Row(i), src[v]) for every row i of
// m and every block vector v. Rows are taken four at a time and each
// group is dotted against every block vector with Dot4 before the next
// group is read, so m is streamed once per block; every entry is one
// ascending chain, bit-identical to the Dot it replaces.
//
//mhm:deterministic
//mhm:hotpath
func mulRowsBlock(m *Matrix, dst, src [][]float64) {
	n := m.Rows()
	i := 0
	for ; i+4 <= n; i += 4 {
		r0, r1, r2, r3 := m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3)
		for v, x := range src {
			d := dst[v]
			d[i], d[i+1], d[i+2], d[i+3] = Dot4(x, r0, r1, r2, r3)
		}
	}
	for ; i < n; i++ {
		r := m.Row(i)
		for v, x := range src {
			dst[v][i] = Dot(r, x)
		}
	}
}

// GramOp applies C = (1/N) A Aᵀ where A is n x N, without forming C.
// This is the eigenfaces covariance trick: for MHM training sets A holds
// the mean-shifted heat maps as columns. Apply is safe for concurrent
// use (the per-block t = Aᵀ·src vectors come from an internal pool, so
// concurrent calls each check one out and steady-state iteration does
// not allocate).
type GramOp struct {
	A       *Matrix // n x N
	scratch sync.Pool
}

// NewGramOp wraps the n x N matrix a.
func NewGramOp(a *Matrix) *GramOp {
	g := &GramOp{A: a}
	g.scratch.New = func() any { return new([][]float64) }
	return g
}

// Dim returns n, the row dimension of A.
func (g *GramOp) Dim() int { return g.A.Rows() }

// Apply computes dst[v] = (1/N) A (Aᵀ src[v]) in two sweeps over A per
// block: t_v = Aᵀ src[v] folds the rows of A in ascending order (a zero
// source entry skips its row for that vector only), then dst[v] = A t_v
// dots every row against every t_v.
//
//mhm:deterministic
//mhm:hotpath
func (g *GramOp) Apply(dst, src [][]float64) {
	n, cols := g.A.Rows(), g.A.Cols()
	tp := g.scratch.Get().(*[][]float64)
	if len(*tp) < len(src) {
		//mhmlint:ignore hotpath grows once per block size; steady-state iteration reuses it
		*tp = newBlock(len(src), cols)
	}
	t := (*tp)[:len(src)]
	for _, tv := range t {
		for j := range tv {
			tv[j] = 0
		}
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		r0, r1, r2, r3 := g.A.Row(i), g.A.Row(i+1), g.A.Row(i+2), g.A.Row(i+3)
		for v, x := range src {
			s0, s1, s2, s3 := x[i], x[i+1], x[i+2], x[i+3]
			if s0 != 0 && s1 != 0 && s2 != 0 && s3 != 0 {
				Axpy4(t[v], s0, s1, s2, s3, r0, r1, r2, r3)
				continue
			}
			axpyNonZero(s0, r0, t[v])
			axpyNonZero(s1, r1, t[v])
			axpyNonZero(s2, r2, t[v])
			axpyNonZero(s3, r3, t[v])
		}
	}
	for ; i < n; i++ {
		r := g.A.Row(i)
		for v, x := range src {
			axpyNonZero(x[i], r, t[v])
		}
	}
	mulRowsBlock(g.A, dst, t)
	inv := 1 / float64(cols)
	for _, d := range dst {
		for i := range d {
			d[i] *= inv
		}
	}
	g.scratch.Put(tp)
}

// Restrict returns the rows of A that hold a nonzero entry and the Gram
// operator of those rows alone (the Restricter contract): a zero row of
// A is a zero row and column of C. The gathered rows are copied, so
// the restricted operator does not alias A.
//
//mhm:deterministic
func (g *GramOp) Restrict() ([]int, SymOp) {
	var support []int
	for i := 0; i < g.A.Rows(); i++ {
		nonzero := false
		for _, v := range g.A.Row(i) {
			if !IsFinite(v) {
				return nil, nil
			}
			nonzero = nonzero || v != 0
		}
		if nonzero {
			support = append(support, i)
		}
	}
	if len(support) == 0 || len(support) == g.A.Rows() {
		return support, nil
	}
	sub := New(len(support), g.A.Cols())
	for r, i := range support {
		copy(sub.Row(r), g.A.Row(i))
	}
	return support, NewGramOp(sub)
}

// axpyNonZero is Axpy that skips a zero scale.
//
//mhm:hotpath
func axpyNonZero(s float64, x, y []float64) {
	if s != 0 {
		Axpy(s, x, y)
	}
}

// newBlock returns b zeroed vectors of length n sharing one backing
// array, the block layout SymOp.Apply takes.
func newBlock(b, n int) [][]float64 {
	back := make([]float64, b*n)
	out := make([][]float64, b)
	for i := range out {
		out[i] = back[i*n : (i+1)*n : (i+1)*n]
	}
	return out
}

// blockParts returns how many contiguous ranges a b-vector block is
// split into: one when serial, else up to GOMAXPROCS ranges of at least
// four vectors each.
func blockParts(b int, parallel bool) int {
	if !parallel {
		return 1
	}
	parts := runtime.GOMAXPROCS(0)
	if most := b / 4; parts > most {
		parts = most
	}
	if parts < 1 {
		parts = 1
	}
	return parts
}

// applyBlock computes z = A q for the block, split into parts contiguous
// ranges, one goroutine each. Every range streams the operator once,
// and since each output vector depends on its own input alone the
// result is bit-identical for every split.
func applyBlock(op SymOp, z, q [][]float64, parts int) {
	b := len(q)
	if parts <= 1 {
		op.Apply(z, q)
		return
	}
	var wg sync.WaitGroup
	for p := 1; p < parts; p++ {
		lo, hi := p*b/parts, (p+1)*b/parts
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			op.Apply(z[lo:hi], q[lo:hi])
		}(lo, hi)
	}
	op.Apply(z[:b/parts], q[:b/parts])
	wg.Wait()
}

// TopKOptions tunes EigenSymTopK.
type TopKOptions struct {
	// MaxIter bounds the number of subspace iterations (default 300).
	MaxIter int
	// Tol is the relative change in the Ritz values at which iteration
	// stops (default 1e-10).
	Tol float64
	// Seed seeds the random starting block for determinism (default 1).
	Seed int64
	// Oversample adds extra vectors to the iterated block to speed
	// convergence of the trailing wanted pairs (default min(8, dim-k)).
	Oversample int
	// Parallel splits the block into a few contiguous ranges and applies
	// the operator to each on its own goroutine; the operator's Apply
	// must be concurrency-safe (GramOp is). Results are
	// identical to the serial run.
	Parallel bool
	// Init warm-starts the iteration: its columns (an n×m matrix, m ≤
	// k+Oversample — typically the previous model's eigenvectors) seed
	// the leading block rows, and any remaining rows come from the
	// seeded random generator as usual. When the operator has drifted
	// only slightly from the one that produced Init, the block starts
	// near the invariant subspace and converges in a handful of
	// iterations instead of hundreds.
	Init *Matrix
}

func (o *TopKOptions) fill(dim, k int) {
	if o.MaxIter <= 0 {
		o.MaxIter = 300
	}
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Oversample <= 0 {
		o.Oversample = 8
	}
	if k+o.Oversample > dim {
		o.Oversample = dim - k
	}
}

// EigenSymTopK computes the k largest eigenpairs of the symmetric PSD
// operator op by block subspace (orthogonal) iteration with a Rayleigh-
// Ritz projection each round. Eigenvalues come back in decreasing order;
// eigenvectors are the columns of the returned matrix. When op is a
// Restricter whose support holds at least the block, the iteration
// runs on the support alone, bit-identical to the full run.
func EigenSymTopK(op SymOp, k int, opts TopKOptions) (*Eigen, error) {
	n := op.Dim()
	if k <= 0 || k > n {
		return nil, fmt.Errorf("mat: EigenSymTopK: k=%d for dim %d: %w", k, n, ErrShape)
	}
	opts.fill(n, k)
	b := k + opts.Oversample // block size

	q, err := startBlock(n, b, opts)
	if err != nil {
		return nil, err
	}
	// Iterate on the operator's support when it has one (DESIGN.md
	// §14.2). After the first apply every block vector is exactly +0 off
	// the support, and adding ±0 to an accumulator that starts at +0
	// changes nothing, so the restricted run reproduces the full run bit
	// for bit until a step whose bits depend on the dropped coordinates:
	// a collapsed row (the full run draws a replacement of length n) or
	// an overflow (off the support the full run would compute 0·∞ =
	// NaN). It stops there, and the full run starts over from the same
	// start block.
	if r, ok := op.(Restricter); ok {
		if support, sub := r.Restrict(); sub != nil && len(support) >= b {
			if es, err := iterate(sub, gatherRows(q, support), k, opts, support, n); err == nil {
				return es, nil
			}
		}
	}
	return iterate(op, q, k, opts, nil, n)
}

// startBlock returns the orthonormalized start block: b rows of length
// n, the leading ones copied from the columns of opts.Init and the rest
// drawn from the seeded generator. The copied (warm) rows are read row
// by row from Init, and the coordinates where any of them is not
// exactly +0 are listed: a warm start from a model fitted on a support
// is zero everywhere else, and Gram–Schmidt runs every step against a
// warm row over that list alone (gramSchmidt). A non-finite warm entry
// sends the whole block down the dense sweep.
func startBlock(n, b int, opts TopKOptions) ([][]float64, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	// Block of b column vectors, stored as rows of q (b x n) for locality.
	q := newBlock(b, n)
	warm, sparse := 0, 0
	var cells []int
	if opts.Init != nil {
		if opts.Init.Rows() != n {
			return nil, fmt.Errorf("mat: EigenSymTopK: Init has %d rows, operator dim %d: %w", opts.Init.Rows(), n, ErrShape)
		}
		warm = min(opts.Init.Cols(), b)
		finite := true
		for j := 0; j < n; j++ {
			on := false
			for i, x := range opts.Init.Row(j)[:warm] {
				q[i][j] = x
				on = on || math.Float64bits(x) != 0
				finite = finite && IsFinite(x)
			}
			if on {
				cells = append(cells, j)
			}
		}
		if finite {
			sparse = warm
		}
	}
	for _, row := range q[warm:] {
		for j := range row {
			row[j] = rng.NormFloat64()
		}
	}
	if err := gramSchmidt(q, sparse, cells, true); err != nil {
		return nil, err
	}
	return q, nil
}

// errRestricted stops a restricted run (see EigenSymTopK) at the first
// step the full run would take differently.
var errRestricted = errors.New("mat: EigenSymTopK: restricted run left the support")

// gatherRows returns the block q restricted to the support coordinates.
func gatherRows(q [][]float64, support []int) [][]float64 {
	out := newBlock(len(q), len(support))
	for v, row := range q {
		for i, j := range support {
			out[v][i] = row[j]
		}
	}
	return out
}

// iterate runs block subspace iteration on op from the orthonormal
// start block q and returns the leading k Ritz pairs with vectors of
// length n. A non-nil support makes it the restricted run: op acts on
// the support coordinates, the vectors are scattered back with zeros
// elsewhere, and it returns errRestricted instead of replacing a
// collapsed row or returning a non-finite Rayleigh quotient. (A
// non-finite operator output inside the loop poisons the next block,
// which then collapses.)
func iterate(op SymOp, q [][]float64, k int, opts TopKOptions, support []int, n int) (*Eigen, error) {
	b, dim := len(q), op.Dim()
	restricted := support != nil
	z, next := newBlock(b, dim), newBlock(b, dim)
	parts := blockParts(b, opts.Parallel)
	prev := make([]float64, k)
	var ritzVals []float64

	for iter := 0; iter < opts.MaxIter; iter++ {
		// z_i = A q_i
		applyBlock(op, z, q, parts)
		// Rayleigh-Ritz: S = Q A Qᵀ (b x b), small dense eigenproblem.
		s := New(b, b)
		for i, zi := range z {
			j := i
			for ; j+4 <= b; j += 4 {
				v0, v1, v2, v3 := Dot4(zi, q[j], q[j+1], q[j+2], q[j+3])
				for d, v := range [4]float64{v0, v1, v2, v3} {
					s.Set(i, j+d, v)
					s.Set(j+d, i, v)
				}
			}
			for ; j < b; j++ {
				v := Dot(q[j], zi)
				s.Set(i, j, v)
				s.Set(j, i, v)
			}
		}
		es, err := EigenSym(s)
		if err != nil {
			return nil, fmt.Errorf("mat: EigenSymTopK: inner eigensolve: %w", err)
		}
		// Rotate the block: next = esᵀ-combined rows of z (i.e. Ritz
		// vectors of A within span(z)). Using z (=A·q) instead of q makes
		// this a power step plus projection.
		for c, dst := range next { // Ritz vector c
			for j := range dst {
				dst[j] = 0
			}
			for i, zi := range z {
				if w := es.Vectors.At(i, c); w != 0 {
					Axpy(w, zi, dst)
				}
			}
		}
		if err := gramSchmidt(next, 0, nil, !restricted); err != nil {
			return nil, err
		}
		q, next = next, q
		ritzVals = es.Values

		// Convergence on the k wanted Ritz values.
		maxRel := 0.0
		for i := 0; i < k; i++ {
			den := math.Abs(ritzVals[i])
			if den < 1e-300 {
				den = 1e-300
			}
			rel := math.Abs(ritzVals[i]-prev[i]) / den
			if rel > maxRel {
				maxRel = rel
			}
		}
		copy(prev, ritzVals[:k])
		if iter > 0 && maxRel < opts.Tol {
			break
		}
	}

	// Final Rayleigh quotients for the leading k pairs. They can come
	// out of order by tiny amounts, so the pairs are sorted before their
	// vectors are scattered into the n×k result.
	applyBlock(op, z[:k], q[:k], blockParts(k, opts.Parallel))
	ritz := make([]float64, k)
	for c, row := range q[:k] {
		ritz[c] = Dot(row, z[c])
		if restricted && !IsFinite(ritz[c]) {
			return nil, errRestricted
		}
	}
	vals := make([]float64, k)
	vecs := New(n, k)
	for c, from := range decreasing(ritz) {
		vals[c] = ritz[from]
		for i, v := range q[from] {
			j := i
			if restricted {
				j = support[i]
			}
			vecs.Set(j, c, v)
		}
	}
	return &Eigen{Values: vals, Vectors: vecs}, nil
}

// gramSchmidt applies modified Gram-Schmidt to the rows of q in place.
// The leading sparse rows are exactly +0 off the ascending coordinate
// list cells, and every step against one of them runs over that list
// alone: the dot product and axpy of a later row, and the row's own
// normalization. That is bit-identical to the full-length step
// (DESIGN.md §14.2). Off the list such a row contributes ±0 products,
// which leave a dot accumulator unchanged (it starts at +0 and never
// becomes −0) and leave an axpy target that is not −0 unchanged.
//
// With replace set, rows that collapse to (near) zero are replaced by
// fresh random directions orthogonal to the earlier rows; this keeps
// subspace iteration full-rank when the operator has low numerical
// rank. A replaced row is dense, and so is every row after it. Without
// replace a collapse returns errRestricted.
func gramSchmidt(q [][]float64, sparse int, cells []int, replace bool) error {
	var rng *rand.Rand // seeded at the first collapse: most calls never draw
	scratch := make([]float64, len(cells))
	for i, ri := range q {
		for attempt := 0; ; attempt++ {
			for j, rj := range q[:i] {
				if j < sparse {
					axpyOn(-dotOn(ri, rj, cells), rj, ri, cells)
				} else {
					Axpy(-Dot(ri, rj), rj, ri)
				}
			}
			var norm float64
			if i < sparse {
				norm = normalizeOn(ri, cells, scratch)
			} else {
				norm = Normalize(ri)
			}
			if norm > 1e-12 {
				break
			}
			if !replace {
				return errRestricted
			}
			if attempt >= 5 {
				return fmt.Errorf("mat: gramSchmidt: row %d keeps collapsing: %w", i, ErrSingular)
			}
			if rng == nil {
				rng = rand.New(rand.NewSource(42))
			}
			for k := range ri {
				ri[k] = rng.NormFloat64()
			}
			sparse = min(sparse, i)
		}
	}
	return nil
}

// dotOn is Dot(a, b) for b exactly +0 off cells.
func dotOn(a, b []float64, cells []int) float64 {
	s := 0.0
	for _, c := range cells {
		s += a[c] * b[c]
	}
	return s
}

// axpyOn is Axpy(s, x, y) for x exactly +0 off cells and y not −0
// there.
func axpyOn(s float64, x, y []float64, cells []int) {
	for _, c := range cells {
		y[c] += s * x[c]
	}
}

// normalizeOn is Normalize(v) for v exactly +0 off cells: the listed
// entries are gathered into scratch (of len(cells)), normalized and
// scattered back. Off the list the full-length Normalize scales +0 by
// 1/norm, which is +0 unless the row collapses, and a collapsed row is
// redrawn whole.
func normalizeOn(v []float64, cells []int, scratch []float64) float64 {
	for t, c := range cells {
		scratch[t] = v[c]
	}
	norm := Normalize(scratch)
	for t, c := range cells {
		v[c] = scratch[t]
	}
	return norm
}
