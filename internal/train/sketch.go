// The incremental form of the eigenmemory covariance build: a sliding
// window of raw interval vectors whose mean, per-tile sum-of-squares
// and implicit covariance operator are maintained one sample at a time
// instead of being rebuilt from scratch. Each ring slot also keeps the
// ascending list of its sample's nonzero cells, and each cell the
// number of held samples that touch it, so an Update pays only for the
// cells the evicted and the entering samples occupy: a device interval
// touches about 46 of L = 1,472 cells. The covariance is never
// materialized: subspace iteration applies it as
// C·v = (1/n)·Σ_s x_s (x_s·v) − μ (μ·v), the eigenfaces Gram trick
// rearranged for a ring of raw rows.
package train

import (
	"fmt"

	"github.com/memheatmap/mhm/internal/mat"
)

// Centered is the sliding-window centered covariance sketch behind the
// incremental model refresh. All storage is preallocated by
// NewCentered; Update is allocation-free. The held samples always
// occupy ring slots [0, Len()); slot order is the deterministic
// function of the push history (round-robin overwrite), not recency
// order.
//
// Determinism contract: for a fixed push history, every field — mean,
// sums, total variance, operator results — is bit-identical for every
// worker count, and to the dense per-tile update that scans every cell
// of every sample. Update runs serially and adds each cell's terms, and
// each dimension tile's second-moment terms, in the dense update's
// order; the terms it leaves out are those of cells a sample does not
// touch, which add ±0 to a sum that is never −0 and so change no bit.
// Rebuild splits the cells into the dimension tiles of BuildCentered,
// and cross-tile reductions fold in ascending tile index.
//
// A −0 entry of an entering sample is stored as +0: Sample reads it
// back as +0, and every sum and operator result keeps its bits.
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
	cells []int32   // window×l: slot s lists its nonzero cells, ascending, in cells[s*l : s*l+nnz[s]]
	nnz   []int     // per-slot list lengths
	count []int32   // per-cell number of held samples nonzero there
	sum   []float64 // per-dimension Σ x_s[i] over held samples
	mean  []float64 // sum / n
	sumSq []float64 // per-tile Σ_s Σ_{i∈tile} x_s[i]² partials

	rChunk func(idx, worker int) // prebuilt Rebuild dispatch

	// Restrict's storage, kept between calls: the support, the cell →
	// support-position map and the gathered operator.
	support []int
	pos     []int32
	on      centeredOn
}

// NewCentered returns an empty sketch over l-dimensional samples with
// the given window capacity. workers bounds the goroutines Rebuild
// uses; values below 1 mean serial, and results are bit-identical for
// every value. Update runs serially at every worker count.
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
		cells: make([]int32, window*l),
		nnz:   make([]int, window),
		count: make([]int32, l),
		sum:   make([]float64, l),
		mean:  make([]float64, l),
		sumSq: make([]float64, chunkCount(l, dimTile)),
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

// Cells returns the cells where held sample s (0 ≤ s < Len) is not
// ±0, ascending, as a view into the sketch. Only valid until an Update
// overwrites the slot.
func (c *Centered) Cells(s int) []int32 { return c.cells[s*c.l : s*c.l+c.nnz[s]] }

// Update folds one sample into the window, evicting the oldest once the
// ring is full. cells must list, ascending, every cell where v is not
// ±0 (listing a zero cell as well is harmless). It allocates nothing and
// reads v only at the listed cells: once the window is full, an Update
// costs O(nnz) work on the cells the evicted and the entering samples
// occupy. While the window fills, every mean's divisor changes, so all
// L means are re-derived.
//
//mhm:deterministic
func (c *Centered) Update(v []float64, cells []int32) error {
	if len(v) != c.l {
		return fmt.Errorf("train: Centered.Update: sample has %d dims, want %d", len(v), c.l)
	}
	prev := int32(-1)
	for _, i := range cells {
		if i <= prev || int(i) >= c.l {
			return fmt.Errorf("train: Centered.Update: cell %d after %d not ascending in [0, %d)", i, prev, c.l)
		}
		prev = i
	}
	// A full window keeps its divisor, so only the means of the cells a
	// sample leaves or enters change.
	full := c.n == c.window
	if full { // the head slot holds the oldest sample: evict it
		c.evict(c.head)
	}
	c.insert(c.head, v, cells, full)
	c.head = (c.head + 1) % c.window
	if !full {
		c.n++
		inv := float64(c.n)
		for i, s := range c.sum {
			c.mean[i] = s / inv
		}
	}
	return nil
}

// evict takes the sample in slot of the full window out of the running
// sums, clears its ring row and empties its cell list. The listed cells
// are ascending, so the per-tile second-moment partial is carried in a
// register across a tile's cells and stored when the tile changes. Each
// touched cell's mean is re-derived over the full window.
//
//mhm:hotpath
//mhm:deterministic
func (c *Centered) evict(slot int) {
	row := c.x[slot*c.l : (slot+1)*c.l]
	inv := float64(c.window)
	tile, sq := -1, 0.0
	for _, i := range c.cells[slot*c.l : slot*c.l+c.nnz[slot]] {
		if t := int(i) / dimTile; t != tile {
			if tile >= 0 {
				c.sumSq[tile] = sq
			}
			tile, sq = t, c.sumSq[t]
		}
		old := row[i]
		row[i] = 0
		c.count[i]--
		c.sum[i] -= old
		sq -= old * old
		c.mean[i] = c.sum[i] / inv
	}
	if tile >= 0 {
		c.sumSq[tile] = sq
	}
	c.nnz[slot] = 0
}

// insert writes v's nonzero listed cells into the cleared ring row of
// slot, lists them and adds them to the running sums, in ascending cell
// order; with full set, each touched cell's mean is re-derived over the
// full window.
//
//mhm:hotpath
//mhm:deterministic
func (c *Centered) insert(slot int, v []float64, cells []int32, full bool) {
	row := c.x[slot*c.l : (slot+1)*c.l]
	list := c.cells[slot*c.l : (slot+1)*c.l]
	inv := float64(c.window)
	n, tile, sq := 0, -1, 0.0
	for _, i := range cells {
		xv := v[i]
		if mat.IsZero(xv) {
			continue
		}
		if t := int(i) / dimTile; t != tile {
			if tile >= 0 {
				c.sumSq[tile] = sq
			}
			tile, sq = t, c.sumSq[t]
		}
		row[i] = xv
		list[n] = i
		n++
		c.count[i]++
		c.sum[i] += xv
		sq += xv * xv
		if full {
			c.mean[i] = c.sum[i] / inv
		}
	}
	if tile >= 0 {
		c.sumSq[tile] = sq
	}
	c.nnz[slot] = n
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
// cell, or when a held sample or the mean has a NaN or ±Inf entry. The
// support comes from the per-cell counts and the mean, and the ring is
// gathered from the cell lists, so no held row is scanned in full.
//
// The support and the gathered operator live in storage the sketch
// keeps and reuses, so a refresh that restricts the window every time
// allocates it once; both are valid until the next Restrict.
//
//mhm:deterministic
func (c *Centered) Restrict() ([]int, mat.SymOp) {
	support := c.support[:0]
	for i, m := range c.mean {
		// A held NaN or ±Inf leaves its cell's running sum, and so the
		// mean, non-finite: no add or subtract turns a NaN or an
		// infinity back into a finite value, and Rebuild sums the held
		// entries again. The mean therefore vouches for the held samples.
		if !mat.IsFinite(m) {
			return nil, nil
		}
		if c.count[i] > 0 || !mat.IsZero(m) {
			support = append(support, i)
		}
	}
	c.support = support
	if len(support) == 0 {
		return nil, nil
	}
	if len(support) == c.l {
		return support, nil
	}
	if c.pos == nil {
		c.pos = make([]int32, c.l)
	}
	// Only support cells are read back from pos: every listed cell of a
	// held sample is on the support.
	m, sub := len(support), &c.on
	sub.l, sub.n = m, c.n
	sub.x = grow(sub.x, c.n*m)
	sub.mean = grow(sub.mean, m)
	clear(sub.x)
	for k, i := range support {
		c.pos[i] = int32(k)
		sub.mean[k] = c.mean[i]
	}
	for s := 0; s < c.n; s++ {
		row, dst := c.Sample(s), sub.x[s*m:(s+1)*m]
		for _, i := range c.Cells(s) {
			dst[c.pos[i]] = row[i]
		}
	}
	return support, sub
}

// grow returns buf resliced to length n, reallocated when its capacity
// is short; the entries are left as they are.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
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
