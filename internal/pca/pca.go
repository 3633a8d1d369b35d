// Package pca implements the paper's "eigenmemory" dimensionality
// reduction (§4.2): principal component analysis of the training MHMs,
// exactly the eigenfaces recipe. A training set of N heat maps in
// L dimensions is mean-shifted, the top L' eigenvectors of the empirical
// covariance become the eigenmemories, and every MHM is represented by
// its L' projection weights.
package pca

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"github.com/memheatmap/mhm/internal/mat"
)

// ErrTraining wraps invalid training inputs.
var ErrTraining = errors.New("pca: invalid training input")

// Options tunes Train.
type Options struct {
	// Components fixes L' directly when positive.
	Components int
	// VarianceFraction picks the smallest L' whose eigenvalues explain at
	// least this fraction of total variance (used when Components == 0;
	// the paper uses 0.9999 — "more than 99.99% of the variances").
	VarianceFraction float64
	// MaxComponents caps the eigenpairs computed during variance-driven
	// selection (default 32).
	MaxComponents int
	// Seed seeds the subspace iteration (default 1).
	Seed int64
	// Parallel splits the subspace iteration's block of vectors into a
	// few contiguous ranges applied on separate goroutines; results are
	// identical to the serial run.
	Parallel bool
	// Workers bounds the goroutines used for the mean/Φ/variance build
	// (fixed dimension tiles merged in index order). Zero picks
	// GOMAXPROCS when Parallel is set, else 1. Results are bit-identical
	// for every worker count.
	Workers int
}

func (o *Options) fill() error {
	if o.Components < 0 {
		return fmt.Errorf("pca: negative component count %d: %w", o.Components, ErrTraining)
	}
	if o.Components == 0 {
		if mat.IsZero(o.VarianceFraction) {
			o.VarianceFraction = 0.9999
		}
		if o.VarianceFraction < 0 || o.VarianceFraction > 1 {
			return fmt.Errorf("pca: variance fraction %g out of (0,1]: %w", o.VarianceFraction, ErrTraining)
		}
	}
	if o.MaxComponents <= 0 {
		o.MaxComponents = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return nil
}

// Model holds the learned eigenmemory basis.
type Model struct {
	// Mean is the empirical mean MHM Ψ (length L).
	Mean []float64
	// Components is L x L': eigenmemory u_j in column j.
	Components *mat.Matrix
	// Values are the corresponding eigenvalues, decreasing.
	Values []float64
	// TotalVariance is trace of the empirical covariance, for
	// variance-explained reporting.
	TotalVariance float64

	// Projection cache (Prepare): uᵀ stored row-wise plus the
	// precomputed uᵀΨ offsets, the one copy of the basis Eq. 1 sweeps.
	prepOnce sync.Once
	compT    *mat.Matrix // L' x L
	meanOff  []float64   // length L': u_jᵀ Ψ
	finite   bool        // every basis entry is finite: ±0 cells may be skipped
}

// Prepare builds the projection cache Sweep reads: uᵀ stored row-wise,
// the offsets uᵀΨ, and whether every basis entry is finite. It runs
// once per model; later calls return at once. ProjectInto and
// ProjectCellsInto call it themselves; a caller of Sweep calls it first,
// off its hot path (score.New does). The model must not be mutated
// afterwards.
func (m *Model) Prepare() {
	m.prepOnce.Do(func() {
		m.compT = m.Components.T()
		m.meanOff = make([]float64, m.compT.Rows())
		_ = m.compT.MulVecInto(m.meanOff, m.Mean)
		m.finite = true
		for j := 0; j < m.compT.Rows(); j++ {
			for _, x := range m.compT.Row(j) {
				m.finite = m.finite && mat.IsFinite(x)
			}
		}
	})
}

// Train learns the eigenmemories of a training set (each element one MHM
// vector of equal length L). It is a Fit stepped to completion.
//
//mhm:deterministic
func Train(set [][]float64, opts Options) (*Model, error) {
	var f Fit
	if err := f.StartTrain(set, opts); err != nil {
		return nil, err
	}
	return f.run()
}

// Dim returns (L, L').
func (m *Model) Dim() (int, int) { return m.Components.Rows(), m.Components.Cols() }

// VarianceExplained returns the fraction of total variance captured by
// the retained eigenmemories.
func (m *Model) VarianceExplained() float64 {
	if m.TotalVariance <= 0 {
		return 1
	}
	s := 0.0
	for _, v := range m.Values {
		if v > 0 {
			s += v
		}
	}
	f := s / m.TotalVariance
	if f > 1 {
		f = 1 // numerical round-off
	}
	return f
}

// Project transforms one MHM vector into eigenmemory weights
// (Eq. 1: M' = uᵀ(M − Ψ), computed as uᵀM − uᵀΨ with the second term
// cached).
func (m *Model) Project(v []float64) ([]float64, error) {
	_, lp := m.Dim()
	out := make([]float64, lp)
	if err := m.ProjectInto(out, v); err != nil {
		return nil, err
	}
	return out, nil
}

// ProjectInto computes Project into dst (length L'), allocating nothing
// after the projection cache is built on first use. Safe for concurrent
// use with distinct dst slices.
//
// It lists v's occupied cells on the stack (ListOccupied) and sweeps
// only those, or sweeps the whole vector once v is more than a third
// occupied or the list is full (DESIGN.md §8). Either way each entry is
// bit-identical to its own mat.Dot over all L cells.
//
//mhm:deterministic
func (m *Model) ProjectInto(dst, v []float64) error {
	if err := m.checkProject(dst, v); err != nil {
		return err
	}
	if m.finite {
		var vals [listCap]float64
		var cells [listCap]int32
		if n := ListOccupied(vals[:], cells[:], v); n >= 0 {
			m.Sweep(dst, vals[:n], cells[:n])
			return nil
		}
	}
	m.Sweep(dst, v, nil)
	return nil
}

// ProjectCellsInto is ProjectInto for a vector whose occupied cells the
// caller already holds: cells must list, ascending, every cell where v
// is not ±0 (listing a zero cell as well is harmless). Up to listCap
// cells, their values are gathered on the stack and only those are
// swept, at O(len(cells)·L') instead of a scan of all L cells; a longer
// list sweeps the whole vector. The result is bit-identical to
// ProjectInto.
//
//mhm:deterministic
func (m *Model) ProjectCellsInto(dst, v []float64, cells []int32) error {
	if err := m.checkProject(dst, v); err != nil {
		return err
	}
	prev := int32(-1)
	for _, c := range cells {
		if c <= prev || int(c) >= len(v) {
			return fmt.Errorf("pca: ProjectCellsInto: cell %d after %d not ascending in [0, %d): %w", c, prev, len(v), ErrTraining)
		}
		prev = c
	}
	if !m.finite || len(cells) > listCap {
		m.Sweep(dst, v, nil)
		return nil
	}
	var vals [listCap]float64
	for t, c := range cells {
		vals[t] = v[c]
	}
	m.Sweep(dst, vals[:len(cells)], cells)
	return nil
}

// checkProject validates the projection shapes and builds the cache.
func (m *Model) checkProject(dst, v []float64) error {
	l, lp := m.Dim()
	if len(v) != l {
		return fmt.Errorf("pca: Project: length %d, want %d: %w", len(v), l, ErrTraining)
	}
	if len(dst) != lp {
		return fmt.Errorf("pca: Project: dst length %d, want %d: %w", len(dst), lp, ErrTraining)
	}
	m.Prepare()
	return nil
}

// Sweep is the projection kernel (Eq. 1): it computes dst = uᵀx − uᵀΨ
// (length L') of one vector x that is ±0 outside the listed cells:
// vals[t] is x at cell cells[t], cells ascending. A nil cells list
// means vals is all of x. ProjectInto, ProjectCellsInto and every
// score.Scorer entry project through it. Prepare must have run, and a
// list may skip cells only over a finite basis (see below); the caller
// checks the lengths.
//
// The basis rows go three to a pass, and each pass keeps one
// accumulator chain per row: the sweep is bound by the add latency of a
// chain, so a pass over three rows costs about what one row costs. When
// L' is not a multiple of three, the last pass sweeps row L'−1 again in
// its spare slots and discards those sums. Each chain adds its row's
// products in ascending cell order, so dst[j] is bit-identical to the
// single-chain sweep of row j over all L cells. A skipped term is a
// ±0 input times a basis entry, which is ±0 for any finite entry; a
// skipped 0·∞ would have been NaN, so ProjectInto sweeps a basis with a
// NaN or ±Inf entry whole and score.New refuses one. Adding ±0 to an
// accumulator that is not −0 is a bitwise no-op, and an accumulator
// that starts at +0 never becomes −0, since a sum is −0 only when both
// operands are. NaN, ±Inf and subnormal inputs are occupied cells and
// are never skipped.
//
//mhm:hotpath
//mhm:deterministic
func (m *Model) Sweep(dst, vals []float64, cells []int32) {
	t, lp := m.compT, len(dst)
	for j := 0; j < lp; j += 3 {
		j1, j2 := min(j+1, lp-1), min(j+2, lp-1)
		s0, s1, s2 := sweep3(vals, cells, t.Row(j), t.Row(j1), t.Row(j2))
		dst[j] = s0 - m.meanOff[j]
		if j+1 < lp {
			dst[j+1] = s1 - m.meanOff[j+1]
		}
		if j+2 < lp {
			dst[j+2] = s2 - m.meanOff[j+2]
		}
	}
}

// sweep3 is one pass of Sweep over three basis rows, one chain per row:
// s_k = Σ_t r_k[cells[t]]·vals[t] in ascending t, or Σ_i r_k[i]·vals[i]
// when cells is nil.
//
//mhm:hotpath
//mhm:deterministic
func sweep3(vals []float64, cells []int32, r0, r1, r2 []float64) (s0, s1, s2 float64) {
	if cells == nil {
		r0, r1, r2 = r0[:len(vals)], r1[:len(vals)], r2[:len(vals)]
		for i, x := range vals {
			s0 += r0[i] * x
			s1 += r1[i] * x
			s2 += r2[i] * x
		}
		return s0, s1, s2
	}
	vals = vals[:len(cells)]
	for t, c := range cells {
		x := vals[t]
		s0 += r0[c] * x
		s1 += r1[c] * x
		s2 += r2[c] * x
	}
	return s0, s1, s2
}

// listCap bounds the stack lists of ProjectInto and ProjectCellsInto.
// The give-up rule stops a list near a third of the cells, so at
// L = 1,472 a list never outgrows it; a longer vector that fills it is
// swept whole.
const listCap = 512

// ListOccupied lists v's occupied cells — those whose bits are not ±0;
// NaN, ±Inf and subnormals count — in ascending order into cells, with
// their values in vals, and returns how many there are. Past some
// occupancy the list costs more than sweeping v whole: at L = 1,472 the
// two routes cost the same near 25% occupancy for L' = 6 and near
// 35–40% for L' = 9 (DESIGN.md §8, BenchmarkScoreOccupancy). So once
// more than a third of the cells scanned so far are occupied, beyond
// the first 64, or the list is full, the scan gives up and returns −1,
// and v is swept whole. vals must be at least as long as cells.
//
// It is kept out of line: inlined into its caller, the loop kept n on
// the stack and ran about twice as slow.
//
//mhm:hotpath
//mhm:deterministic
//go:noinline
func ListOccupied(vals []float64, cells []int32, v []float64) int {
	n := 0
	for i, x := range v {
		if math.Float64bits(x)<<1 != 0 {
			if 3*n > i+64 || n == len(cells) {
				return -1
			}
			vals[n] = x
			cells[n] = int32(i)
			n++
		}
	}
	return n
}

// ProjectAll transforms a whole set.
func (m *Model) ProjectAll(set [][]float64) ([][]float64, error) {
	out := make([][]float64, len(set))
	for i, v := range set {
		w, err := m.Project(v)
		if err != nil {
			return nil, fmt.Errorf("pca: MHM %d: %w", i, err)
		}
		out[i] = w
	}
	return out, nil
}

// Reconstruct maps weights back to MHM space: Ψ + Σ w_j u_j.
func (m *Model) Reconstruct(w []float64) ([]float64, error) {
	l, lp := m.Dim()
	if len(w) != lp {
		return nil, fmt.Errorf("pca: Reconstruct: length %d, want %d: %w", len(w), lp, ErrTraining)
	}
	out := make([]float64, l)
	copy(out, m.Mean)
	for j, wj := range w {
		if mat.IsZero(wj) {
			continue
		}
		for i := 0; i < l; i++ {
			out[i] += wj * m.Components.At(i, j)
		}
	}
	return out, nil
}

// ReconstructionError returns the RMS error of projecting and
// reconstructing v.
func (m *Model) ReconstructionError(v []float64) (float64, error) {
	l, lp := m.Dim()
	return m.ReconstructionErrorInto(make([]float64, lp), make([]float64, l), v)
}

// ReconstructionErrorInto is ReconstructionError with caller-provided
// scratch — w of length L' and rec of length L — so per-interval
// residual checks run allocation-free. Results are bit-identical to
// ReconstructionError.
func (m *Model) ReconstructionErrorInto(w, rec, v []float64) (float64, error) {
	if err := m.ProjectInto(w, v); err != nil {
		return 0, err
	}
	l, _ := m.Dim()
	if len(rec) != l {
		return 0, fmt.Errorf("pca: ReconstructionErrorInto: rec length %d, want %d: %w", len(rec), l, ErrTraining)
	}
	copy(rec, m.Mean)
	for j, wj := range w {
		if mat.IsZero(wj) {
			continue
		}
		for i := 0; i < l; i++ {
			rec[i] += wj * m.Components.At(i, j)
		}
	}
	return mat.DistEuclid(v, rec) / math.Sqrt(float64(len(v))), nil
}

// modelJSON is the serialization form of Model.
type modelJSON struct {
	Mean          []float64   `json:"mean"`
	Components    [][]float64 `json:"components"` // row-major L x L'
	Values        []float64   `json:"values"`
	TotalVariance float64     `json:"totalVariance"`
}

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error {
	l, lp := m.Dim()
	rows := make([][]float64, l)
	for i := 0; i < l; i++ {
		rows[i] = make([]float64, lp)
		copy(rows[i], m.Components.Row(i))
	}
	return json.NewEncoder(w).Encode(modelJSON{
		Mean:          m.Mean,
		Components:    rows,
		Values:        m.Values,
		TotalVariance: m.TotalVariance,
	})
}

// Load reads a model produced by Save.
func Load(r io.Reader) (*Model, error) {
	var mj modelJSON
	if err := json.NewDecoder(r).Decode(&mj); err != nil {
		return nil, fmt.Errorf("pca: decode model: %w", err)
	}
	if len(mj.Mean) == 0 || len(mj.Components) != len(mj.Mean) {
		return nil, fmt.Errorf("pca: malformed model: %w", ErrTraining)
	}
	comps, err := mat.FromRows(mj.Components)
	if err != nil {
		return nil, fmt.Errorf("pca: malformed components: %w", err)
	}
	if comps.Cols() != len(mj.Values) {
		return nil, fmt.Errorf("pca: %d values for %d components: %w", len(mj.Values), comps.Cols(), ErrTraining)
	}
	return &Model{
		Mean:          mj.Mean,
		Components:    comps,
		Values:        mj.Values,
		TotalVariance: mj.TotalVariance,
	}, nil
}
