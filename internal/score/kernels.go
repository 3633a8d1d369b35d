// The fused scoring kernels. Everything here is annotated //mhm:hotpath
// and enforced allocation-free by mhmlint: no allocating builtins, no
// fmt, no closures, no calls into unannotated module code. Callers own
// all storage; slices passed in are presized by the Scorer.
package score

import (
	"math"
	"math/bits"
)

// project computes the eigenmemory projection w = uᵀx − uᵀΨ of one
// vector x that is ±0.0 outside the listed cells: vals[t] is x at cell
// cells[t], cells ascending. A nil cells list means vals is all of x,
// swept directly.
//
// The panel rows go three to a pass, and each pass keeps one
// accumulator chain per row: the sweep is bound by the add latency of a
// chain, so a pass over three rows costs about what one row costs. When
// L' is not a multiple of three, the last pass sweeps row L'−1 again in
// its spare slots and discards those sums. Each chain adds its row's
// products in ascending cell order, so w[j] is bit-identical to the
// single-chain sweep of row j over all L cells: by the argument at
// projectBatchInto, a skipped term is a ±0.0 product of a finite panel
// entry and was a no-op in that sweep.
//
//mhm:hotpath
//mhm:deterministic
func (e *Engine) project(w, vals []float64, cells []int32) {
	l, lp := e.l, e.lp
	for j := 0; j < lp; j += 3 {
		j1, j2 := min(j+1, lp-1), min(j+2, lp-1)
		s0, s1, s2 := sweep3(vals, cells, e.panel[j*l:(j+1)*l], e.panel[j1*l:(j1+1)*l], e.panel[j2*l:(j2+1)*l])
		w[j] = s0 - e.meanOff[j]
		if j+1 < lp {
			w[j+1] = s1 - e.meanOff[j+1]
		}
		if j+2 < lp {
			w[j+2] = s2 - e.meanOff[j+2]
		}
	}
}

// projectVec projects one dense vector v (length L) into w, sweeping
// the list of occupied cells occupied writes into vals and cells (both
// of capacity L), or v itself when it is mostly occupied.
//
//mhm:hotpath
//mhm:deterministic
func (e *Engine) projectVec(w, v, vals []float64, cells []int32) {
	if n := occupied(vals, cells, v); n >= 0 {
		e.project(w, vals[:n], cells[:n])
	} else {
		e.project(w, v, nil)
	}
}

// occupied lists v's occupied cells — those whose bits are not ±0.0;
// NaN, ±Inf and subnormals count — in ascending order into cells, with
// their values in vals, and returns how many there are. Past some
// occupancy the list costs more than sweeping v directly: at L = 1,472
// the two routes cost the same near 25% occupancy for L' = 6 and near
// 35–40% for L' = 9 (DESIGN.md §8, BenchmarkScoreOccupancy). So once
// more than a third of the cells scanned so far are occupied, beyond
// the first 64, the scan gives up and returns −1, and v is swept
// directly.
//
// It is kept out of line: inlined into projectVec, the loop kept n on
// the stack and ran about twice as slow.
//
//mhm:hotpath
//mhm:deterministic
//go:noinline
func occupied(vals []float64, cells []int32, v []float64) int {
	n := 0
	for i, x := range v {
		if math.Float64bits(x)<<1 != 0 {
			if 3*n > i+64 {
				return -1
			}
			vals[n] = x
			cells[n] = int32(i)
			n++
		}
	}
	return n
}

// sweep3 is one pass of project over three panel rows, one chain per
// row: s_k = Σ_t r_k[cells[t]]·vals[t] in ascending t, or
// Σ_i r_k[i]·vals[i] when cells is nil.
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

// tileI is the i-dimension cache tile of the batch projection: 8 lanes
// × 256 doubles × 8 bytes = 16 KiB, comfortably inside L1d, so a packed
// tile written once is still resident while all L' panel rows sweep it.
const tileI = 256

// projectBatchInto projects the full blocks of eight vectors in vecs
// into wb (row b = reduced vector b) through a packed, L1-tiled,
// zero-compacted panel product. ScoreBatch projects the remainder of
// fewer than eight vectors one at a time.
//
// Per i-tile, one fused scan ORs the raw float64 bits of all eight
// lanes per column: columns whose every lane is ±0.0 are dropped, the
// survivors transposed column-major into pk (pk[t*8+k] = lane k of the
// t-th retained column) with their tile-relative indices in ridx. Heat
// maps are overwhelmingly empty (a handful of hot cells per interval),
// so this typically shrinks the kernel work by 20×+. Panel rows then
// gather the retained entries into prow and sweep the compacted tile
// via dotPacked8x2 (two rows per pass — doubling the add chains the
// dot loop is latency-bound on), with per-row, per-lane accumulators
// in acc chained across tiles in ascending i.
//
// Dropping a column only skips terms row[i]·x where x is ±0.0. Those
// products are themselves ±0.0 for any finite row[i], and adding ±0.0
// to an accumulator that is not -0.0 is a bitwise no-op; since every
// accumulator starts at +0.0 and a sum that includes a non-negative-
// zero term can never yield -0.0, each lane remains bit-identical to
// the full mat.Dot sweep — provided the panel is finite (true for any
// trained model; a NaN/Inf panel entry would have propagated through
// training long before scoring). NaN/Inf *inputs* are never dropped:
// their bit patterns survive the OR test and stay in the kernel sweep.
//
//mhm:hotpath
func (e *Engine) projectBatchInto(wb, pk, prow, acc []float64, ridx []int32, vecs [][]float64) {
	l, lp := e.l, e.lp
	for b := 0; b+8 <= len(vecs); b += 8 {
		acc := acc[:lp*8]
		for x := range acc {
			acc[x] = 0
		}
		v0, v1, v2, v3 := vecs[b], vecs[b+1], vecs[b+2], vecs[b+3]
		v4, v5, v6, v7 := vecs[b+4], vecs[b+5], vecs[b+6], vecs[b+7]
		for lo := 0; lo < l; lo += tileI {
			hi := lo + tileI
			if hi > l {
				hi = l
			}
			// Scan: keep a column if any lane has bits besides the sign.
			// With an occupancy kernel bound, 64 columns are tested per
			// call and only set bits are packed; the scalar loop covers
			// the tail (and everything, on targets without the kernel).
			nz := 0
			t0, t1, t2, t3 := v0[lo:hi], v1[lo:hi], v2[lo:hi], v3[lo:hi]
			t4, t5, t6, t7 := v4[lo:hi], v5[lo:hi], v6[lo:hi], v7[lo:hi]
			i := 0
			if colMask64 != nil {
				for ; i+64 <= len(t0); i += 64 {
					bm := colMask64(t0, t1, t2, t3, t4, t5, t6, t7, i)
					for bm != 0 {
						c := i + bits.TrailingZeros64(bm)
						bm &= bm - 1
						p := pk[nz*8 : nz*8+8 : nz*8+8]
						p[0], p[1], p[2], p[3] = t0[c], t1[c], t2[c], t3[c]
						p[4], p[5], p[6], p[7] = t4[c], t5[c], t6[c], t7[c]
						ridx[nz] = int32(c)
						nz++
					}
				}
			}
			for ; i < len(t0); i++ {
				x0, x1, x2, x3 := t0[i], t1[i], t2[i], t3[i]
				x4, x5, x6, x7 := t4[i], t5[i], t6[i], t7[i]
				m := math.Float64bits(x0) | math.Float64bits(x1) |
					math.Float64bits(x2) | math.Float64bits(x3) |
					math.Float64bits(x4) | math.Float64bits(x5) |
					math.Float64bits(x6) | math.Float64bits(x7)
				if m<<1 == 0 {
					continue
				}
				p := pk[nz*8 : nz*8+8 : nz*8+8]
				p[0], p[1], p[2], p[3] = x0, x1, x2, x3
				p[4], p[5], p[6], p[7] = x4, x5, x6, x7
				ridx[nz] = int32(i)
				nz++
			}
			if nz == 0 {
				continue
			}
			g0 := prow[:nz]
			g1 := prow[tileI : tileI+nz]
			j := 0
			for ; j+2 <= lp; j += 2 {
				r0 := e.panel[j*l+lo : j*l+hi]
				r1 := e.panel[(j+1)*l+lo : (j+1)*l+hi]
				for t := 0; t < nz; t++ {
					ii := int(ridx[t])
					g0[t] = r0[ii]
					g1[t] = r1[ii]
				}
				dotPacked8x2(g0, g1, pk[:nz*8],
					(*[8]float64)(acc[j*8:j*8+8]), (*[8]float64)(acc[(j+1)*8:(j+1)*8+8]))
			}
			if j < lp {
				r0 := e.panel[j*l+lo : j*l+hi]
				for t := 0; t < nz; t++ {
					g0[t] = r0[int(ridx[t])]
				}
				dotPacked8(g0, pk[:nz*8], (*[8]float64)(acc[j*8:j*8+8]))
			}
		}
		for j := 0; j < lp; j++ {
			off := e.meanOff[j]
			for k := 0; k < 8; k++ {
				wb[(b+k)*lp+j] = acc[j*8+k] - off
			}
		}
	}
}

// mixKernel evaluates the mixture log density of a reduced vector w:
// per component, a fused mean-offset + forward substitution through the
// flattened Cholesky factor gives the squared Mahalanobis distance, and
// the per-component log terms close with a log-sum-exp. Operation order
// matches gmm.Model.LogProb exactly (including the skip of non-positive
// weights at construction), so the result is bit-identical.
//
//mhm:hotpath
func (e *Engine) mixKernel(w, y, terms []float64) float64 {
	lp := e.lp
	best := math.Inf(-1)
	for ci := range e.comps {
		c := &e.comps[ci]
		// Forward substitution L y = (w − µ), accumulating m2 = yᵀy.
		m2 := 0.0
		for i := 0; i < lp; i++ {
			s := w[i] - c.mean[i]
			li := c.chol[i*lp : (i+1)*lp]
			for k := 0; k < i; k++ {
				s -= li[k] * y[k]
			}
			yi := s / li[i]
			y[i] = yi
			m2 += yi * yi
		}
		t := c.logW - 0.5*(c.base+m2)
		terms[ci] = t
		if t > best {
			best = t
		}
	}
	if len(e.comps) == 0 || math.IsInf(best, -1) {
		return math.Inf(-1)
	}
	sum := 0.0
	for _, t := range terms[:len(e.comps)] {
		sum += math.Exp(t - best)
	}
	return best + math.Log(sum)
}
