// Package score is the fused, allocation-free scoring engine for the
// per-interval classification the paper budgets in §5.4: eigenmemory
// projection (Eq. 1) plus mixture log-density (Eq. 2) over
// preallocated, cache-friendly storage.
//
// Layout: the projection is pca.Model's own kernel (pca.Model.Sweep)
// over the model's prepared uᵀ cache, so the engine references the
// basis and holds no copy of it. Each mixture component carries its
// precomputed log-weight, Cholesky factor (flattened lower-triangular,
// row-major) and log-determinant, so the density needs only a forward
// substitution and a log-sum-exp — no per-call slices anywhere.
//
// Every Score entry is two halves run back to back: a projection into
// the Scorer's reduced vector (Project, ProjectCounts) and the mixture
// kernel over it (Density). An instrumented detector times the halves
// apart; everything else calls the composed entries.
//
// The arithmetic reproduces pca.Model.Project followed by
// gmm.Model.LogProb operation for operation (same accumulation order,
// same constant folding), so fused scores are bit-identical to the
// staged path.
//
// Concurrency: an Engine is immutable after construction and shared
// freely; a Scorer owns scratch and serves one goroutine at a time.
// Give each worker its own Scorer via Engine.NewScorer.
package score

import (
	"errors"
	"fmt"
	"math"

	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/mat"
	"github.com/memheatmap/mhm/internal/pca"
)

// ErrModel wraps engine construction failures and shape mismatches.
var ErrModel = errors.New("score: invalid model")

const log2Pi = 1.8378770664093453 // ln(2π), as in gmm

// component is one Gaussian with everything the scoring kernel needs
// precomputed and flattened.
type component struct {
	mean []float64 // µ_j, length L'
	chol []float64 // lower-triangular Cholesky factor, row-major L'×L'
	logW float64   // ln λ_j
	base float64   // L'·ln(2π) + ln det Σ_j
}

// Engine holds the fused model: immutable after construction, safe to
// share across any number of Scorers.
type Engine struct {
	p     *pca.Model // the basis Eq. 1 sweeps, its cache prepared by New
	l, lp int
	comps []component
}

// New fuses a trained eigenmemory basis and mixture into an Engine. The
// mixture must be trained on the basis's L'-dimensional weights, and
// every parameter must be finite: a NaN or ±Inf in the basis, its mean
// Ψ, a weight, or the mean or covariance of a kept component is
// ErrModel, since the projection's cell skipping is exact only over a
// finite basis.
// Components with non-positive weight are dropped, exactly as LogProb
// skips them. The engine references p, which must not be mutated
// afterwards.
func New(p *pca.Model, g *gmm.Model) (*Engine, error) {
	if p == nil || g == nil {
		return nil, fmt.Errorf("score: nil model: %w", ErrModel)
	}
	l, lp := p.Dim()
	if d := g.Dim(); d != lp {
		return nil, fmt.Errorf("score: mixture dimension %d, eigenmemories %d: %w", d, lp, ErrModel)
	}
	if !finite(p.Mean) || !finiteRows(p.Components) {
		return nil, fmt.Errorf("score: non-finite eigenmemory mean or basis: %w", ErrModel)
	}
	p.Prepare()
	e := &Engine{p: p, l: l, lp: lp}
	for ci := range g.Components {
		c := &g.Components[ci]
		if !mat.IsFinite(c.Weight) {
			return nil, fmt.Errorf("score: component %d weight %g: %w", ci, c.Weight, ErrModel)
		}
		if c.Weight <= 0 {
			continue
		}
		if len(c.Mean) != lp || c.Cov.Rows() != lp || c.Cov.Cols() != lp {
			return nil, fmt.Errorf("score: component %d shape: %w", ci, ErrModel)
		}
		if !finite(c.Mean) || !finiteRows(c.Cov) {
			return nil, fmt.Errorf("score: component %d: non-finite mean or covariance: %w", ci, ErrModel)
		}
		ch, err := mat.NewCholesky(c.Cov)
		if err != nil {
			return nil, fmt.Errorf("score: component %d: %w", ci, err)
		}
		fc := component{
			mean: append([]float64(nil), c.Mean...),
			chol: make([]float64, lp*lp),
			logW: math.Log(c.Weight),
			base: float64(lp)*log2Pi + ch.LogDet(),
		}
		lo := ch.L()
		for i := 0; i < lp; i++ {
			copy(fc.chol[i*lp:(i+1)*lp], lo.Row(i))
		}
		e.comps = append(e.comps, fc)
	}
	return e, nil
}

// finite reports whether every entry of xs is neither NaN nor ±Inf.
func finite(xs []float64) bool {
	for _, x := range xs {
		if !mat.IsFinite(x) {
			return false
		}
	}
	return true
}

// finiteRows is finite over every row of m.
func finiteRows(m *mat.Matrix) bool {
	for i := 0; i < m.Rows(); i++ {
		if !finite(m.Row(i)) {
			return false
		}
	}
	return true
}

// Dim returns (L, L').
func (e *Engine) Dim() (int, int) { return e.l, e.lp }

// Scorer is a per-worker handle: the shared Engine plus private scratch.
// Not safe for concurrent use; create one per goroutine.
type Scorer struct {
	e     *Engine
	w     []float64 // reduced vector, length L'
	y     []float64 // triangular-solve scratch, length L'
	terms []float64 // per-component log terms, length J
	vals  []float64 // values of the occupied cells, length L
	cells []int32   // the occupied cells, ascending, length L
}

// NewScorer returns a Scorer over e with its own scratch.
func (e *Engine) NewScorer() *Scorer {
	return &Scorer{
		e:     e,
		w:     make([]float64, e.lp),
		y:     make([]float64, e.lp),
		terms: make([]float64, len(e.comps)),
		vals:  make([]float64, e.l),
		cells: make([]int32, e.l),
	}
}

// Engine returns the shared immutable engine.
func (s *Scorer) Engine() *Engine { return s.e }

// Score returns the mixture log density of one MHM vector (length L):
// Project, then Density. Zero allocations.
//
//mhm:deterministic
func (s *Scorer) Score(v []float64) (float64, error) {
	if err := s.Project(v); err != nil {
		return 0, err
	}
	return s.Density(), nil
}

// Project is Score's first half: the eigenmemory projection (Eq. 1) of
// one MHM vector (length L) into the Scorer's reduced vector. It pays
// only for the occupied cells — about 46 of 1,472 on a device interval
// — and sweeps a mostly occupied vector whole. Zero allocations.
//
//mhm:deterministic
func (s *Scorer) Project(v []float64) error {
	if len(v) != s.e.l {
		return fmt.Errorf("score: vector length %d, want %d: %w", len(v), s.e.l, ErrModel)
	}
	if n := pca.ListOccupied(s.vals, s.cells, v); n >= 0 {
		s.e.p.Sweep(s.w, s.vals[:n], s.cells[:n])
	} else {
		s.e.p.Sweep(s.w, v, nil)
	}
	return nil
}

// ScoreCounts returns the mixture log density of one heat map given its
// cell counts (length L), bit-identical to Score on the counts widened
// to float64: ProjectCounts, then Density. Zero allocations.
//
//mhm:hotpath
//mhm:deterministic
func (s *Scorer) ScoreCounts(counts []uint32) (float64, error) {
	if err := s.ProjectCounts(counts); err != nil {
		return 0, err
	}
	return s.Density(), nil
}

// ProjectCounts is ScoreCounts' first half, Project on the counts
// widened to float64, bit for bit. One scan of the counts lists the
// occupied cells and widens only those, so a device interval never
// builds its L-cell float vector; past Project's give-up point the
// counts are widened whole and swept whole. Zero allocations.
//
//mhm:hotpath
//mhm:deterministic
func (s *Scorer) ProjectCounts(counts []uint32) error {
	if len(counts) != s.e.l {
		//mhmlint:ignore hotpath cold error path; callers check the map against the region first
		return fmt.Errorf("score: %d counts, want %d: %w", len(counts), s.e.l, ErrModel)
	}
	if n := occupiedCounts(s.vals, s.cells, counts); n >= 0 {
		s.e.p.Sweep(s.w, s.vals[:n], s.cells[:n])
		return nil
	}
	vals := s.vals[:len(counts)]
	for i, c := range counts {
		vals[i] = float64(c)
	}
	s.e.p.Sweep(s.w, vals, nil)
	return nil
}

// Density is the second half of every Score entry: the mixture log
// density (Eq. 2) of the reduced vector the last Project or
// ProjectCounts call left. Zero allocations.
//
//mhm:hotpath
func (s *Scorer) Density() float64 {
	return s.e.mixKernel(s.w, s.y, s.terms)
}

// ScoreSparse scores one interval given only its occupied cells, as
// run-length coordinates: run r covers cells starts[r] through
// starts[r]+lens[r]-1 and counts carries the cell counts in run
// order (Σ lens[r] == len(counts)). Runs must be in ascending cell
// order and non-overlapping, within [0, L). The runs expand into the
// cell list Score's kernel sweeps, so the result is bit-identical to
// Score on the densified vector — this is the scoring half of the
// fused zero-copy ingest→snoop→score path. Zero allocations.
//
//mhm:deterministic
func (s *Scorer) ScoreSparse(starts, lens []int32, counts []uint32) (float64, error) {
	if len(starts) != len(lens) {
		return 0, fmt.Errorf("score: %d run starts, %d run lengths: %w", len(starts), len(lens), ErrModel)
	}
	nnz := 0
	prev := int32(0)
	for r, st := range starts {
		if st < prev || lens[r] <= 0 || int(st)+int(lens[r]) > s.e.l {
			return 0, fmt.Errorf("score: run %d [%d,+%d) invalid for %d cells: %w",
				r, st, lens[r], s.e.l, ErrModel)
		}
		prev = st + lens[r]
		nnz += int(lens[r])
	}
	if nnz != len(counts) {
		return 0, fmt.Errorf("score: runs cover %d cells, %d counts: %w", nnz, len(counts), ErrModel)
	}
	vals := s.vals[:nnz]
	for i, c := range counts {
		vals[i] = float64(c)
	}
	cells := s.cells[:0]
	for r, st := range starts {
		for c := st; c < st+lens[r]; c++ {
			cells = append(cells, c)
		}
	}
	s.e.p.Sweep(s.w, vals, cells)
	return s.Density(), nil
}
