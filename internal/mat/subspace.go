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
// the restricted operator does not alias A. Each row is read once,
// without a branch per entry (rowScan).
//
//mhm:deterministic
func (g *GramOp) Restrict() ([]int, SymOp) {
	var support []int
	for i := 0; i < g.A.Rows(); i++ {
		nonzero, finite := rowScan(g.A.Row(i))
		if !finite {
			return nil, nil
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

// rowScan reports whether row holds an entry that is not ±0, and
// whether every entry is finite. It ORs the entries' bits, where only a
// ±0 entry leaves every bit but the sign clear, and adds up x − x, which
// is +0 for a finite x and NaN for a NaN or ±Inf one.
//
//mhm:hotpath
func rowScan(row []float64) (nonzero, finite bool) {
	var bits uint64
	nan := 0.0
	i := 0
	for ; i+4 <= len(row); i += 4 {
		a, b, c, d := row[i], row[i+1], row[i+2], row[i+3]
		bits |= math.Float64bits(a) | math.Float64bits(b) | math.Float64bits(c) | math.Float64bits(d)
		nan += (a - a) + (b - b) + (c - c) + (d - d)
	}
	for ; i < len(row); i++ {
		bits |= math.Float64bits(row[i])
		nan += row[i] - row[i]
	}
	return bits<<1 != 0, nan == 0
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
// runs on the support alone, bit-identical to the full run. It is a
// TopK solve stepped to completion.
//
//mhmlint:ignore deadapi the one-shot form of TopK: the eigen goldens and the restriction and warm-start tests pin their bits through it
func EigenSymTopK(op SymOp, k int, opts TopKOptions) (*Eigen, error) {
	var t TopK
	if err := t.Start(op, k, opts); err != nil {
		return nil, err
	}
	for {
		done, err := t.Step()
		if err != nil {
			return nil, err
		}
		if done {
			return t.Result(), nil
		}
	}
}

// TopKStats describes a TopK solve. Every field counts work done, so it
// is the same on every machine and at every worker count.
type TopKStats struct {
	// Iterations counts the subspace iterations over both runs.
	Iterations int
	// Converged reports that the last run stopped at the Ritz-value
	// tolerance rather than at MaxIter.
	Converged bool
	// FallbackSteps counts the steps of the full-dimension run that took
	// over after a restricted run stopped: each applies the operator at
	// full dimension.
	FallbackSteps int
}

// topkStage is where a TopK solve stands.
type topkStage int

const (
	topkIdle    topkStage = iota // no solve started, or the last one failed
	topkStart                    // the next Step builds more start-block rows
	topkIterate                  // the next Step runs one subspace iteration
	topkFinal                    // the next Step takes the final Rayleigh quotients
	topkDone                     // Result holds the eigenpairs
)

// startDenseRows is how many densely swept start-block rows a TopK step
// builds. A dense row at L = 1,472 costs a draw of L normals and a dot
// and an axpy against every earlier dense row; a warm row swept over
// its support costs little and rides free. So the warm refresh's block
// of 9 warm and 8 random rows is one step, and the full rebuild's 17
// random rows are three, the dearest about 0.4 ms.
const startDenseRows = 8

// TopK is EigenSymTopK as a resumable solve that runs one bounded step
// per Step call, so a caller with a per-interval time budget can spread
// a solve over many intervals (DESIGN.md §14.4). Start fixes the
// problem and does no work. The first Steps build the start block,
// startDenseRows dense rows each, and the one that completes it
// restricts the operator when it is a Restricter and starts the run;
// each later Step runs one subspace iteration; the Step after the last
// iteration takes the final Rayleigh quotients and reports done. When
// the restricted run stops, the Step that stopped it sets up the full
// run from the same start block and the solve goes on at full dimension
// (the dense fallback, TopKStats.FallbackSteps). The steps run
// EigenSymTopK's arithmetic in its order, so every solve keeps its
// bits.
//
// A TopK keeps its storage from one solve to the next — the start
// block, the block gathered onto the support, the iterated blocks and
// the Rayleigh–Ritz matrix — and reuses it whenever it is large enough.
// The eigenpairs Result returns are allocated afresh by every solve.
// With Parallel set, a step's block apply starts goroutines and joins
// them before Step returns. Not safe for concurrent use.
type TopK struct {
	op    SymOp
	k, n  int
	opts  TopKOptions
	stage topkStage
	stats TopKStats
	res   *Eigen

	start, gather, zBuf, nextBuf blockBuf
	ritz                         *Matrix // the b×b Rayleigh–Ritz matrix
	starter                      starter

	// The current run: on the support (support non-nil) or at full
	// dimension.
	rop        SymOp
	support    []int
	q, z, next [][]float64
	parts      int
	iter       int
	prev       []float64
	fallback   bool // the run is the dense fallback
}

// blockBuf keeps a block's storage between solves.
type blockBuf struct {
	back []float64
	rows [][]float64
}

// shape returns the buffer as b vectors of length n sharing one backing
// array, the block layout SymOp.Apply takes, reusing the storage when it
// is large enough. The entries are left as they are.
func (bb *blockBuf) shape(b, n int) [][]float64 {
	if cap(bb.back) < b*n {
		bb.back = make([]float64, b*n)
	}
	if cap(bb.rows) < b {
		bb.rows = make([][]float64, b)
	}
	bb.rows = bb.rows[:b]
	for i := range bb.rows {
		bb.rows[i] = bb.back[i*n : (i+1)*n : (i+1)*n]
	}
	return bb.rows
}

// Start begins a solve for the k largest eigenpairs of op, dropping any
// solve under way. It checks k and fills the options' defaults; the
// work starts at the first Step.
func (t *TopK) Start(op SymOp, k int, opts TopKOptions) error {
	t.stage, t.stats, t.res = topkIdle, TopKStats{}, nil
	t.rop, t.support, t.q, t.z, t.next, t.fallback = nil, nil, nil, nil, nil, false
	t.starter = starter{}
	n := op.Dim()
	if k <= 0 || k > n {
		return fmt.Errorf("mat: EigenSymTopK: k=%d for dim %d: %w", k, n, ErrShape)
	}
	opts.fill(n, k)
	t.op, t.k, t.n, t.opts, t.stage = op, k, n, opts, topkStart
	return nil
}

// Step runs the solve's next step and reports whether the solve is
// done, with the eigenpairs in Result. After an error, or once the
// solve is done, Step does nothing until the next Start.
//
//mhm:deterministic
func (t *TopK) Step() (bool, error) {
	fallback := t.fallback
	var err error
	switch t.stage {
	case topkStart:
		err = t.startStep()
	case topkIterate:
		err = t.iterate()
	case topkFinal:
		err = t.final()
	default:
		return t.stage == topkDone, nil
	}
	if fallback {
		t.stats.FallbackSteps++
	}
	if err != nil && t.support != nil {
		// The restricted run stopped where the full run's bits depend on
		// the dropped coordinates: the full run starts over from the
		// same start block, which the restricted run left untouched.
		t.run(t.op, t.start.rows, nil)
		t.fallback, err = true, nil
	}
	if err != nil {
		t.stage = topkIdle
		t.release()
		return false, err
	}
	return t.stage == topkDone, nil
}

// Result returns the eigenpairs of the finished solve, or nil before it
// is done.
func (t *TopK) Result() *Eigen { return t.res }

// Stats describes the solve so far.
func (t *TopK) Stats() TopKStats { return t.stats }

// startStep builds the next rows of the start block (see starter); the
// first call sizes the block and copies the warm rows, and the call that
// completes the block starts the run (restrict).
func (t *TopK) startStep() error {
	if t.starter.next == 0 {
		q := t.start.shape(t.k+t.opts.Oversample, t.n)
		if err := t.starter.begin(q, t.opts); err != nil {
			return err
		}
	}
	done, err := t.starter.rows(startDenseRows)
	if done && err == nil {
		t.restrict()
	}
	return err
}

// restrict starts the run: on the operator's support when it has one
// (DESIGN.md §14.2). After the first apply every block vector is
// exactly +0 off the support, and adding ±0 to an accumulator that
// starts at +0 changes nothing, so the restricted run reproduces the
// full run bit for bit until a step whose bits depend on the dropped
// coordinates: a collapsed row (the full run draws a replacement of
// length n) or an overflow (off the support the full run would compute
// 0·∞ = NaN). It stops there, and Step starts the full run over from
// the same start block.
func (t *TopK) restrict() {
	q := t.start.rows
	b := len(q)
	if r, ok := t.op.(Restricter); ok {
		if support, sub := r.Restrict(); sub != nil && len(support) >= b {
			t.run(sub, gatherRowsInto(t.gather.shape(b, len(support)), q, support), support)
			return
		}
	}
	t.run(t.op, q, nil)
}

// run starts a run of block subspace iteration on op from the
// orthonormal start block q. A non-nil support makes it the restricted
// run: op acts on the support coordinates, the vectors are scattered
// back with zeros elsewhere, and a step returns errRestricted instead of
// replacing a collapsed row or returning a non-finite Rayleigh quotient.
// (A non-finite operator output inside the loop poisons the next block,
// which then collapses.)
func (t *TopK) run(op SymOp, q [][]float64, support []int) {
	b, dim := len(q), op.Dim()
	t.rop, t.q, t.support = op, q, support
	t.z, t.next = t.zBuf.shape(b, dim), t.nextBuf.shape(b, dim)
	t.parts = blockParts(b, t.opts.Parallel)
	t.iter = 0
	if cap(t.prev) < t.k {
		t.prev = make([]float64, t.k)
	}
	t.prev = t.prev[:t.k]
	clear(t.prev)
	if t.ritz == nil || t.ritz.Rows() != b {
		t.ritz = New(b, b)
	}
	t.stats.Converged = false
	t.stage = topkIterate
}

// iterate runs one subspace iteration of the current run and moves the
// solve to its final step once the k wanted Ritz values have converged
// or MaxIter iterations have run.
func (t *TopK) iterate() error {
	b := len(t.q)
	// z_i = A q_i
	applyBlock(t.rop, t.z, t.q, t.parts)
	// Rayleigh-Ritz: S = Q A Qᵀ (b x b), small dense eigenproblem.
	s := t.ritz
	for i, zi := range t.z {
		j := i
		for ; j+4 <= b; j += 4 {
			v0, v1, v2, v3 := Dot4(zi, t.q[j], t.q[j+1], t.q[j+2], t.q[j+3])
			for d, v := range [4]float64{v0, v1, v2, v3} {
				s.Set(i, j+d, v)
				s.Set(j+d, i, v)
			}
		}
		for ; j < b; j++ {
			v := Dot(t.q[j], zi)
			s.Set(i, j, v)
			s.Set(j, i, v)
		}
	}
	es, err := EigenSym(s)
	if err != nil {
		return fmt.Errorf("mat: EigenSymTopK: inner eigensolve: %w", err)
	}
	// Rotate the block: next = esᵀ-combined rows of z (i.e. Ritz
	// vectors of A within span(z)). Using z (=A·q) instead of q makes
	// this a power step plus projection.
	for c, dst := range t.next { // Ritz vector c
		for j := range dst {
			dst[j] = 0
		}
		for i, zi := range t.z {
			if w := es.Vectors.At(i, c); w != 0 {
				Axpy(w, zi, dst)
			}
		}
	}
	if err := gramSchmidt(t.next, 0, nil, t.support == nil); err != nil {
		return err
	}
	t.q, t.next = t.next, t.q
	t.stats.Iterations++

	// Convergence on the k wanted Ritz values.
	maxRel := 0.0
	for i, p := range t.prev {
		den := math.Abs(es.Values[i])
		if den < 1e-300 {
			den = 1e-300
		}
		rel := math.Abs(es.Values[i]-p) / den
		if rel > maxRel {
			maxRel = rel
		}
	}
	copy(t.prev, es.Values)
	first := t.iter == 0
	t.iter++
	switch {
	case !first && maxRel < t.opts.Tol:
		t.stats.Converged = true
		t.stage = topkFinal
	case t.iter >= t.opts.MaxIter:
		t.stage = topkFinal
	}
	return nil
}

// final takes the Rayleigh quotients of the leading k pairs. They can
// come out of order by tiny amounts, so the pairs are sorted before
// their vectors are scattered into the freshly allocated n×k result.
func (t *TopK) final() error {
	k := t.k
	applyBlock(t.rop, t.z[:k], t.q[:k], blockParts(k, t.opts.Parallel))
	restricted := t.support != nil
	ritz := make([]float64, k)
	for c, row := range t.q[:k] {
		ritz[c] = Dot(row, t.z[c])
		if restricted && !IsFinite(ritz[c]) {
			return errRestricted
		}
	}
	vals := make([]float64, k)
	vecs := New(t.n, k)
	for c, from := range decreasing(ritz) {
		vals[c] = ritz[from]
		for i, v := range t.q[from] {
			j := i
			if restricted {
				j = t.support[i]
			}
			vecs.Set(j, c, v)
		}
	}
	t.res = &Eigen{Values: vals, Vectors: vecs}
	t.stage = topkDone
	t.release()
	return nil
}

// release drops the solve's references to the caller's operator and
// Init, so a kept TopK holds only its own storage.
func (t *TopK) release() {
	t.op, t.rop, t.support, t.opts.Init = nil, nil, nil, nil
}

// starter builds the orthonormalized start block in q (b rows of length
// n) a few rows at a time: the leading rows copied from the columns of
// opts.Init and the rest drawn from the seeded generator. The copied
// (warm) rows are read row by row from Init, all in begin, and the
// coordinates where any of them is not exactly +0 are listed: a warm
// start from a model fitted on a support is zero everywhere else, and
// Gram–Schmidt runs every step against a warm row over that list alone
// (gramSchmidt). A non-finite warm entry sends the whole block down the
// dense sweep. rows then draws each random row and orthonormalizes each
// row in order. A row's Gram–Schmidt reads only the rows before it, and
// the random rows take their draws from the generator in row order, so
// the block is the same however its rows are split between calls.
// Every entry of q is written.
type starter struct {
	q    [][]float64
	rng  *rand.Rand
	warm int
	next int // rows built
	gs   gramSchmidtRun
}

// begin validates opts.Init against q and copies the warm rows.
func (s *starter) begin(q [][]float64, opts TopKOptions) error {
	b, n := len(q), len(q[0])
	*s = starter{q: q, rng: rand.New(rand.NewSource(opts.Seed)), gs: gramSchmidtRun{replace: true}}
	if opts.Init == nil {
		return nil
	}
	if opts.Init.Rows() != n {
		return fmt.Errorf("mat: EigenSymTopK: Init has %d rows, operator dim %d: %w", opts.Init.Rows(), n, ErrShape)
	}
	s.warm = min(opts.Init.Cols(), b)
	finite := true
	for j := 0; j < n; j++ {
		on := false
		for i, x := range opts.Init.Row(j)[:s.warm] {
			q[i][j] = x
			on = on || math.Float64bits(x) != 0
			finite = finite && IsFinite(x)
		}
		if on {
			s.gs.cells = append(s.gs.cells, j)
		}
	}
	if finite {
		s.gs.sparse = s.warm
	}
	return nil
}

// rows builds the next rows, up to dense of them swept densely (the
// rows from the sparse count on), and reports whether the block is
// complete.
func (s *starter) rows(dense int) (bool, error) {
	hi := s.next
	for n := 0; hi < len(s.q) && (hi < s.gs.sparse || n < dense); hi++ {
		if hi >= s.gs.sparse {
			n++
		}
	}
	for _, row := range s.q[max(s.next, s.warm):max(hi, s.warm)] {
		for j := range row {
			row[j] = s.rng.NormFloat64()
		}
	}
	if err := s.gs.rows(s.q, s.next, hi); err != nil {
		return false, err
	}
	s.next = hi
	return hi == len(s.q), nil
}

// errRestricted stops a restricted run (see EigenSymTopK) at the first
// step the full run would take differently.
var errRestricted = errors.New("mat: EigenSymTopK: restricted run left the support")

// gatherRowsInto writes the block q restricted to the support
// coordinates into dst (len(q) rows of length len(support)) and returns
// dst.
func gatherRowsInto(dst, q [][]float64, support []int) [][]float64 {
	for v, row := range q {
		for i, j := range support {
			dst[v][i] = row[j]
		}
	}
	return dst
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
	g := gramSchmidtRun{sparse: sparse, cells: cells, replace: replace}
	return g.rows(q, 0, len(q))
}

// gramSchmidtRun is gramSchmidt over a block whose rows are taken in
// order, any number at a time: it carries the sparse-row count and the
// generator of replacement rows from one call to the next.
type gramSchmidtRun struct {
	sparse  int
	cells   []int
	replace bool
	rng     *rand.Rand // seeded at the first collapse: most runs never draw
	scratch []float64
}

// rows orthonormalizes rows [lo, hi) of q against the rows before them
// and each other, in order.
func (g *gramSchmidtRun) rows(q [][]float64, lo, hi int) error {
	if len(g.scratch) != len(g.cells) {
		g.scratch = make([]float64, len(g.cells))
	}
	for i := lo; i < hi; i++ {
		ri := q[i]
		for attempt := 0; ; attempt++ {
			for j, rj := range q[:i] {
				if j < g.sparse {
					axpyOn(-dotOn(ri, rj, g.cells), rj, ri, g.cells)
				} else {
					Axpy(-Dot(ri, rj), rj, ri)
				}
			}
			var norm float64
			if i < g.sparse {
				norm = normalizeOn(ri, g.cells, g.scratch)
			} else {
				norm = Normalize(ri)
			}
			if norm > 1e-12 {
				break
			}
			if !g.replace {
				return errRestricted
			}
			if attempt >= 5 {
				return fmt.Errorf("mat: gramSchmidt: row %d keeps collapsing: %w", i, ErrSingular)
			}
			if g.rng == nil {
				g.rng = rand.New(rand.NewSource(42))
			}
			for k := range ri {
				ri[k] = g.rng.NormFloat64()
			}
			g.sparse = min(g.sparse, i)
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
