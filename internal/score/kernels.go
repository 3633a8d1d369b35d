// The fused scoring kernels. Everything here is annotated //mhm:hotpath
// and enforced allocation-free by mhmlint: no allocating builtins, no
// fmt, no closures, no calls into unannotated module code. Callers own
// all storage; slices passed in are presized by the Scorer.
package score

import "math"

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
// single-chain sweep of row j over all L cells. A skipped term is a
// ±0.0 input times a panel entry, which is ±0.0 for any finite entry
// (a trained model's panel is finite). Adding ±0.0 to an accumulator
// that is not −0.0 is a bitwise no-op, and an accumulator that starts
// at +0.0 never becomes −0.0, since a sum is −0.0 only when both
// operands are. NaN, ±Inf and subnormal inputs are occupied cells and
// are never skipped.
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

// occupiedCounts is occupied over integral cell counts: it lists the
// cells with nonzero counts in ascending order into cells, with the
// counts widened into vals, and gives up exactly where occupied would on
// the widened vector, since a count is occupied exactly when its float64
// is not ±0.0. Empty cells never decide the give-up, so the scan skips
// them four to a compare, as heatmap.Sparsify does.
//
//mhm:hotpath
//mhm:deterministic
func occupiedCounts(vals []float64, cells []int32, counts []uint32) int {
	n, l := 0, len(counts)
	for i := 0; i < l; i++ {
		for i+4 <= l && counts[i]|counts[i+1]|counts[i+2]|counts[i+3] == 0 {
			i += 4
		}
		if i == l {
			break
		}
		c := counts[i]
		if c == 0 {
			continue
		}
		if 3*n > i+64 {
			return -1
		}
		vals[n] = float64(c)
		cells[n] = int32(i)
		n++
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
