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

	// Projection cache: uᵀ stored row-wise plus the precomputed uᵀΨ
	// offsets, so Project is a clean L·L' dot-product sweep.
	prepOnce sync.Once
	compT    *mat.Matrix // L' x L
	meanOff  []float64   // length L': u_jᵀ Ψ
	finite   bool        // every basis entry is finite: ±0 cells may be skipped
}

// prepare builds the projection cache.
func (m *Model) prepare() {
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
// It lists v's occupied cells and sweeps only those (projectCells), or
// sweeps every cell once v is more than a third occupied, the give-up
// rule of the scoring engine's list (DESIGN.md §8). Either way each
// entry is bit-identical to its own mat.Dot over all L cells.
//
//mhm:deterministic
func (m *Model) ProjectInto(dst, v []float64) error {
	if err := m.checkProject(dst, v); err != nil {
		return err
	}
	if m.finite {
		var buf [listCap]int32
		if n := occupied(buf[:], v); n >= 0 {
			m.projectCells(dst, v, buf[:n])
			return nil
		}
	}
	m.projectDense(dst, v)
	return nil
}

// ProjectCellsInto is ProjectInto for a vector whose occupied cells the
// caller already holds: cells must list, ascending, every cell where v
// is not ±0 (listing a zero cell as well is harmless). The sweep then
// costs O(len(cells)·L') instead of a scan of all L cells. The result
// is bit-identical to ProjectInto.
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
	if m.finite {
		m.projectCells(dst, v, cells)
	} else {
		m.projectDense(dst, v)
	}
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
	m.prepare()
	return nil
}

// projectDense computes uᵀv − uᵀΨ over all L cells: four basis rows at
// a time (mat.Dot4 inside MulVecInto), each entry bit-identical to its
// own mat.Dot; the caller has checked the lengths.
//
//mhm:deterministic
func (m *Model) projectDense(dst, v []float64) {
	_ = m.compT.MulVecInto(dst, v)
	for j := range dst {
		dst[j] -= m.meanOff[j]
	}
}

// projectCells computes uᵀv − uᵀΨ over the listed cells of v, which
// hold every cell where v is not ±0, ascending. The basis rows go
// three to a pass, one accumulator chain per row, so a pass costs about
// what one row costs; when L' is not a multiple of three the last pass
// sweeps row L'−1 again in its spare slots and discards those sums.
// Each chain adds its row's products in ascending cell order, so dst[j]
// is bit-identical to mat.Dot of row j over all L cells: a skipped
// term is a ±0 cell times a finite basis entry, which is ±0, and adding
// ±0 to an accumulator that starts at +0 changes nothing (DESIGN.md
// §8). That needs a finite basis — a skipped 0·∞ would have been NaN —
// so the callers sweep a basis with a NaN or ±Inf entry densely.
//
//mhm:hotpath
//mhm:deterministic
func (m *Model) projectCells(dst, v []float64, cells []int32) {
	lp := len(dst)
	for j := 0; j < lp; j += 3 {
		j1, j2 := min(j+1, lp-1), min(j+2, lp-1)
		s0, s1, s2 := sweep3(v, cells, m.compT.Row(j), m.compT.Row(j1), m.compT.Row(j2))
		dst[j] = s0 - m.meanOff[j]
		if j+1 < lp {
			dst[j+1] = s1 - m.meanOff[j+1]
		}
		if j+2 < lp {
			dst[j+2] = s2 - m.meanOff[j+2]
		}
	}
}

// sweep3 is one pass of projectCells over three basis rows, one chain
// per row: s_k = Σ_t r_k[c_t]·v[c_t] over the listed cells c_t in
// ascending order.
//
//mhm:hotpath
//mhm:deterministic
func sweep3(v []float64, cells []int32, r0, r1, r2 []float64) (s0, s1, s2 float64) {
	for _, c := range cells {
		x := v[c]
		s0 += x * r0[c]
		s1 += x * r1[c]
		s2 += x * r2[c]
	}
	return s0, s1, s2
}

// listCap bounds ProjectInto's stack list of occupied cells. The
// give-up rule stops a list near a third of the cells, so at
// L = 1,472 a list never outgrows it; a longer vector that fills it
// is swept densely.
const listCap = 512

// occupied lists v's occupied cells — those that are not ±0; NaN, ±Inf
// and subnormals count — in ascending order into cells and returns how
// many there are. Once more than a third of the cells scanned so far
// are occupied, beyond the first 64, or the list is full, it gives up
// and returns −1: past that occupancy the dense sweep is cheaper.
//
//mhm:hotpath
//mhm:deterministic
func occupied(cells []int32, v []float64) int {
	n := 0
	for i, x := range v {
		if mat.IsZero(x) {
			continue
		}
		if 3*n > i+64 || n == len(cells) {
			return -1
		}
		cells[n] = int32(i)
		n++
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
