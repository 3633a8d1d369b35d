// The incremental form of the eigenmemory covariance build: a sliding
// window of raw interval vectors whose mean, per-tile sum-of-squares
// and implicit covariance operator are maintained by mini-batch updates
// instead of being rebuilt from scratch. An Update folds the entering
// samples into (and the evicted samples out of) per-dimension running
// sums over the same fixed dimension tiles as BuildCentered, so the
// steady-state cost of absorbing a batch is O(b·L) with zero
// allocations — against O(W·L) plus an L×W materialization for a full
// rebuild. The covariance is never materialized: subspace iteration
// applies it as C·v = (1/n)·Σ_s x_s (x_s·v) − μ (μ·v), the eigenfaces
// Gram trick rearranged for a ring of raw rows.
package train

import (
	"fmt"

	"github.com/memheatmap/mhm/internal/mat"
)

// Centered is the sliding-window centered covariance sketch behind the
// incremental model refresh. All storage is preallocated by
// NewCentered; Update is allocation-free in steady state. The held
// samples always occupy ring slots [0, Len()); slot order is the
// deterministic function of the push history (round-robin overwrite),
// not recency order.
//
// Determinism contract: for a fixed push history, every field — mean,
// sums, total variance, operator results — is bit-identical for every
// worker count. Each dimension tile owns a disjoint band of the mean,
// the sums and the ring rows, and folds batch samples in ascending
// batch index; cross-tile reductions fold in ascending tile index.
//
// The incremental sums accumulate rounding drift relative to a from-
// scratch pass over the same window. Rebuild recomputes them exactly
// from the ring contents; callers on a drift alarm should prefer a full
// retrain, which also re-derives the basis.
type Centered struct {
	l, window int
	workers   int

	n    int // samples currently held; held slots are exactly [0, n)
	head int // ring slot the next pushed sample lands in

	x     []float64 // window×l ring of raw samples, row-major by slot
	sum   []float64 // per-dimension Σ x_s[i] over held samples
	mean  []float64 // sum / n, refreshed by the owning tile each Update
	sumSq []float64 // per-tile Σ_s Σ_{i∈tile} x_s[i]² partials

	batch  [][]float64           // in-flight Update batch, read by the tile kernels
	uChunk func(idx, worker int) // prebuilt Update dispatch (alloc-free steady state)
	rChunk func(idx, worker int) // prebuilt Rebuild dispatch
}

// NewCentered returns an empty sketch over l-dimensional samples with
// the given window capacity. workers bounds the goroutines used inside
// Update/Rebuild/Apply dispatch; values below 1 mean serial, and
// results are bit-identical for every value.
func NewCentered(l, window, workers int) (*Centered, error) {
	if l <= 0 || window <= 0 {
		return nil, fmt.Errorf("train: NewCentered: l=%d window=%d", l, window)
	}
	if workers < 1 {
		workers = 1
	}
	c := &Centered{
		l: l, window: window, workers: workers,
		x:     make([]float64, window*l),
		sum:   make([]float64, l),
		mean:  make([]float64, l),
		sumSq: make([]float64, chunkCount(l, dimTile)),
	}
	c.uChunk = func(idx, _ int) {
		lo := idx * dimTile
		hi := lo + dimTile
		if hi > c.l {
			hi = c.l
		}
		c.updateTile(lo, hi, idx)
	}
	c.rChunk = func(idx, _ int) {
		lo := idx * dimTile
		hi := lo + dimTile
		if hi > c.l {
			hi = c.l
		}
		c.rebuildTile(lo, hi, idx)
	}
	return c, nil
}

// Len returns the number of samples currently held (≤ Window).
func (c *Centered) Len() int { return c.n }

// Dim returns the sample dimension L (the SymOp contract).
func (c *Centered) Dim() int { return c.l }

// Mean returns the current window mean. The slice aliases internal
// state and is only valid until the next Update/Rebuild; callers that
// keep it must copy.
func (c *Centered) Mean() []float64 { return c.mean }

// Sample returns held sample s (0 ≤ s < Len) as a view into the ring.
// Only valid until an Update overwrites the slot.
func (c *Centered) Sample(s int) []float64 { return c.x[s*c.l : (s+1)*c.l] }

// Update folds a batch of samples into the window, evicting the oldest
// entries once the ring is full. Steady state allocates nothing; the
// cost is O(len(batch)·L) regardless of the window size.
//
//mhm:deterministic
func (c *Centered) Update(batch [][]float64) error {
	for i, v := range batch {
		if len(v) != c.l {
			return fmt.Errorf("train: Centered.Update: sample %d has %d dims, want %d", i, len(v), c.l)
		}
	}
	if len(batch) == 0 {
		return nil
	}
	c.batch = batch
	chunksWorker(chunkCount(c.l, dimTile), c.workers, c.uChunk)
	c.batch = nil
	c.n += len(batch)
	if c.n > c.window {
		c.n = c.window
	}
	c.head = (c.head + len(batch)) % c.window
	return nil
}

// updateTile folds the in-flight batch into dimension band [lo, hi):
// per batch sample in ascending index, the evicted slot's contribution
// leaves the running sums before the entering sample's arrives, then
// the band's mean is re-derived with the same division as buildTile.
//
//mhm:hotpath
func (c *Centered) updateTile(lo, hi, idx int) {
	sq := c.sumSq[idx]
	for b, v := range c.batch {
		slot := (c.head + b) % c.window
		row := c.x[slot*c.l : (slot+1)*c.l]
		if c.n+b >= c.window { // slot holds a live sample: evict it
			for i := lo; i < hi; i++ {
				old := row[i]
				c.sum[i] -= old
				sq -= old * old
			}
		}
		for i := lo; i < hi; i++ {
			xv := v[i]
			row[i] = xv
			c.sum[i] += xv
			sq += xv * xv
		}
	}
	c.sumSq[idx] = sq
	nn := c.n + len(c.batch)
	if nn > c.window {
		nn = c.window
	}
	inv := float64(nn)
	for i := lo; i < hi; i++ {
		c.mean[i] = c.sum[i] / inv
	}
}

// Rebuild recomputes the running sums, the per-tile variance partials
// and the mean exactly from the ring contents (ascending slot order),
// discarding the rounding drift the incremental updates accumulate.
//
//mhm:deterministic
func (c *Centered) Rebuild() {
	chunksWorker(chunkCount(c.l, dimTile), c.workers, c.rChunk)
}

// rebuildTile is the exact from-scratch pass over band [lo, hi).
func (c *Centered) rebuildTile(lo, hi, idx int) {
	for i := lo; i < hi; i++ {
		c.sum[i] = 0
	}
	sq := 0.0
	for s := 0; s < c.n; s++ {
		row := c.x[s*c.l : (s+1)*c.l]
		for i := lo; i < hi; i++ {
			xv := row[i]
			c.sum[i] += xv
			sq += xv * xv
		}
	}
	c.sumSq[idx] = sq
	inv := float64(c.n)
	for i := lo; i < hi; i++ {
		c.mean[i] = c.sum[i] / inv
	}
}

// TotalVar returns tr(C) = Σ‖x‖²/n − ‖μ‖² over the held window,
// clamped at zero against rounding. Partial sums fold in ascending
// tile index.
//
//mhm:deterministic
func (c *Centered) TotalVar() float64 {
	if c.n == 0 {
		return 0
	}
	s := 0.0
	for _, v := range c.sumSq {
		s += v
	}
	tv := s/float64(c.n) - mat.Dot(c.mean, c.mean)
	if tv < 0 {
		tv = 0
	}
	return tv
}

// Apply computes dst[v] = C·src[v] for the window covariance
// C = (1/n)·Σ x xᵀ − μ μᵀ without materializing C, in one sweep over
// the ring per block: four held samples at a time are dotted against
// each block vector (mat.Dot4) and folded straight back into that
// vector's output (mat.Axpy4) before the next four are read. Each
// output element still accumulates the samples in ascending slot order
// with the same rounding as one Dot and one Axpy per sample, so the
// result is bit-identical for every block size and split. Safe for
// concurrent use and allocation-free: the per-sample weights live in
// registers, so no scratch is needed. Together with Dim this makes
// *Centered a mat.SymOp, feeding warm-started subspace iteration
// directly.
//
//mhm:deterministic
//mhm:hotpath
func (c *Centered) Apply(dst, src [][]float64) {
	applyCentered(c.x, c.mean, c.l, c.n, dst, src)
}

// Restrict returns the window's support — the cells some held sample
// touches, plus the cells where the window mean is nonzero (evictions
// can leave a rounding residue in the running sums of cells no held
// sample touches) — and the window covariance on those cells alone,
// over a gathered copy of the ring and the mean (the mat.Restricter
// contract). The operator is nil when the support is empty or every
// cell, or when a held sample or the mean has a NaN or ±Inf entry.
//
//mhm:deterministic
func (c *Centered) Restrict() ([]int, mat.SymOp) {
	touched := make([]bool, c.l)
	if !markTouched(touched, c.mean) {
		return nil, nil
	}
	for s := 0; s < c.n; s++ {
		if !markTouched(touched, c.Sample(s)) {
			return nil, nil
		}
	}
	var support []int
	for i, t := range touched {
		if t {
			support = append(support, i)
		}
	}
	if len(support) == 0 || len(support) == c.l {
		return support, nil
	}
	m := len(support)
	sub := &centeredOn{l: m, n: c.n, x: make([]float64, c.n*m), mean: make([]float64, m)}
	for s := 0; s < c.n; s++ {
		row, dst := c.Sample(s), sub.x[s*m:(s+1)*m]
		for k, i := range support {
			dst[k] = row[i]
		}
	}
	for k, i := range support {
		sub.mean[k] = c.mean[i]
	}
	return support, sub
}

// markTouched sets touched[i] for every nonzero row[i] and reports
// whether the row is finite.
func markTouched(touched []bool, row []float64) bool {
	for i, v := range row {
		if mat.IsZero(v) {
			continue
		}
		if !mat.IsFinite(v) {
			return false
		}
		touched[i] = true
	}
	return true
}

// centeredOn is a window covariance over a gathered ring and mean: the
// operator Centered.Restrict returns.
type centeredOn struct {
	l, n    int
	x, mean []float64
}

// Dim returns the number of gathered cells.
func (c *centeredOn) Dim() int { return c.l }

// Apply is Centered.Apply over the gathered cells.
//
//mhm:deterministic
//mhm:hotpath
func (c *centeredOn) Apply(dst, src [][]float64) {
	applyCentered(c.x, c.mean, c.l, c.n, dst, src)
}

// applyCentered computes dst[v] = C·src[v] for the covariance of the
// first n rows of the row-major ring x (rows of length l) with mean
// mean — the body Centered.Apply and its gathered form share.
//
//mhm:deterministic
//mhm:hotpath
func applyCentered(x, mean []float64, l, n int, dst, src [][]float64) {
	for _, d := range dst {
		for i := range d {
			d[i] = 0
		}
	}
	if n == 0 {
		return
	}
	s := 0
	for ; s+4 <= n; s += 4 {
		x0 := x[s*l : (s+1)*l]
		x1 := x[(s+1)*l : (s+2)*l]
		x2 := x[(s+2)*l : (s+3)*l]
		x3 := x[(s+3)*l : (s+4)*l]
		for v, xv := range src {
			t0, t1, t2, t3 := mat.Dot4(xv, x0, x1, x2, x3)
			mat.Axpy4(dst[v], t0, t1, t2, t3, x0, x1, x2, x3)
		}
	}
	for ; s < n; s++ {
		xs := x[s*l : (s+1)*l]
		for v, xv := range src {
			mat.Axpy(mat.Dot(xs, xv), xs, dst[v])
		}
	}
	inv := 1 / float64(n)
	for v, xv := range src {
		ms := mat.Dot(mean, xv)
		d := dst[v]
		for i := range d {
			d[i] = d[i]*inv - mean[i]*ms
		}
	}
}
