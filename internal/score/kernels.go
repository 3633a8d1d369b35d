// The fused scoring kernels. Everything here is annotated //mhm:hotpath
// and enforced allocation-free by mhmlint: no allocating builtins, no
// fmt, no closures, no calls into unannotated module code. Callers own
// all storage; slices passed in are presized by the Scorer.
package score

import "math"

// occupiedCounts is pca.ListOccupied over integral cell counts: it
// lists the cells with nonzero counts in ascending order into cells,
// with the counts widened into vals, and gives up exactly where
// pca.ListOccupied would on the widened vector (cells is as long as the
// counts, so the list never fills), since a count is occupied exactly
// when its float64 is not ±0.0. Empty cells never decide the give-up, so the scan skips
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
