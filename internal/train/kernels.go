// The blocked E-step and M-step kernels. Everything here is annotated
// //mhm:hotpath and enforced allocation-free by mhmlint; all storage is
// preallocated by newEM. Per-lane and per-component operation order
// reproduces the staged gmm path (Responsibilities → LogProb per
// sample, then the straight M-step sweeps) exactly, so fits are
// bit-identical to the historical arithmetic.
package train

import (
	"math"

	"github.com/memheatmap/mhm/internal/mat"
)

// eStep fills resp with responsibilities and ll with per-sample
// log-likelihoods: full blocks of eight through the eight-lane panel
// kernel, the remainder through the scalar path (identical per-sample
// operation order, so the split point is invisible in the results).
//
//mhm:hotpath
func (e *em) eStep() {
	pd, py := e.pack[:8*e.d], e.pack[8*e.d:]
	s := 0
	for ; s+8 <= e.n; s += 8 {
		e.densBlock8(s, pd, py)
	}
	for ; s < e.n; s++ {
		e.densScalar(s, pd[:e.d], py[:e.d])
	}
}

// densBlock8 evaluates all K component log densities for the eight
// samples starting at s, then converts the eight rows to
// responsibilities + log-likelihoods in place. Per component the
// mean-shifted diffs are packed column-major (pd[i*8+lane]) and the
// forward substitution L y = diff runs all eight lanes at once: row i
// subtracts its dot against the solved prefix via fsubPacked8 — each
// lane performing exactly the scalar sequence s -= L[i][t]·y[t] in
// ascending t — then divides by the pivot and accumulates m2 += y².
//
//mhm:hotpath
func (e *em) densBlock8(s int, pd, py []float64) {
	d, k := e.d, e.k
	for j := 0; j < k; j++ {
		meanj := e.mean[j*d : (j+1)*d]
		cholj := e.chol[j*d*d : (j+1)*d*d]
		for lane := 0; lane < 8; lane++ {
			xi := e.x[(s+lane)*d : (s+lane+1)*d]
			for i, m := range meanj {
				pd[i*8+lane] = xi[i] - m
			}
		}
		var m2, sv [8]float64
		for i := 0; i < d; i++ {
			copy(sv[:], pd[i*8:i*8+8])
			fsubPacked8(cholj[i*d:i*d+i], py[:i*8], &sv)
			lii := cholj[i*d+i]
			for lane := 0; lane < 8; lane++ {
				yv := sv[lane] / lii
				py[i*8+lane] = yv
				m2[lane] += yv * yv
			}
		}
		lw := e.logW[j]
		bs := e.base[j]
		for lane := 0; lane < 8; lane++ {
			e.resp[(s+lane)*k+j] = lw - 0.5*(bs+m2[lane])
		}
	}
	for lane := 0; lane < 8; lane++ {
		e.ll[s+lane] = respLLRow(e.resp[(s+lane)*k : (s+lane+1)*k])
	}
}

// fsubPacked8 subtracts eight packed dot products from the lane
// accumulators: out[k] -= Σ_i row[i]·packed[i*8+k], in ascending i per
// lane — the same operation sequence as the scalar forward-substitution
// row, one row for eight samples at once. len(packed) must be
// 8·len(row).
//
//mhm:hotpath
func fsubPacked8(row, packed []float64, out *[8]float64) {
	for i, r := range row {
		p := packed[i*8 : i*8+8]
		out[0] -= r * p[0]
		out[1] -= r * p[1]
		out[2] -= r * p[2]
		out[3] -= r * p[3]
		out[4] -= r * p[4]
		out[5] -= r * p[5]
		out[6] -= r * p[6]
		out[7] -= r * p[7]
	}
}

// densScalar is the one-sample tail path: the same arithmetic as one
// lane of densBlock8.
//
//mhm:hotpath
func (e *em) densScalar(s int, diff, y []float64) {
	d, k := e.d, e.k
	row := e.resp[s*k : (s+1)*k]
	xi := e.x[s*d : (s+1)*d]
	for j := 0; j < k; j++ {
		meanj := e.mean[j*d : (j+1)*d]
		cholj := e.chol[j*d*d : (j+1)*d*d]
		for i, m := range meanj {
			diff[i] = xi[i] - m
		}
		m2 := 0.0
		for i := 0; i < d; i++ {
			sv := diff[i]
			li := cholj[i*d : i*d+i]
			for t, lv := range li {
				sv -= lv * y[t]
			}
			yv := sv / cholj[i*d+i]
			y[i] = yv
			m2 += yv * yv
		}
		row[j] = e.logW[j] - 0.5*(e.base[j]+m2)
	}
	e.ll[s] = respLLRow(row)
}

// respLLRow converts one row of per-component log terms into
// responsibilities in place and returns the sample's log-likelihood,
// with the max-shifted exponential normalization and ascending-order
// sums of the staged Responsibilities/LogProb pair.
//
//mhm:hotpath
func respLLRow(row []float64) float64 {
	best := math.Inf(-1)
	for _, t := range row {
		if t > best {
			best = t
		}
	}
	if math.IsInf(best, -1) {
		// Degenerate: uniform responsibilities, -Inf likelihood.
		u := 1 / float64(len(row))
		for j := range row {
			row[j] = u
		}
		return math.Inf(-1)
	}
	sum := 0.0
	for j, t := range row {
		ex := math.Exp(t - best)
		row[j] = ex
		sum += ex
	}
	for j := range row {
		row[j] /= sum
	}
	return best + math.Log(sum)
}

// mStepComponent recomputes component j from the responsibility matrix:
// weight, mean, covariance (+Reg on the diagonal) and the refreshed
// Cholesky factor with its density constant. A component whose
// responsibility mass collapsed is re-seeded on the worst-modeled
// sample using the log-likelihoods already computed in the E-step — a
// consistent pre-update criterion (the staged path rescanned against a
// half-updated model), which keeps the components independent. Returns
// false when the covariance is no longer SPD.
//
//mhm:hotpath
func (e *em) mStepComponent(j int) bool {
	n, d, k := e.n, e.d, e.k
	nj := 0.0
	for i := 0; i < n; i++ {
		nj += e.resp[i*k+j]
	}
	if nj < 1e-10 {
		worstI := 0
		worstLL := math.Inf(1)
		for i, v := range e.ll {
			if v < worstLL {
				worstI, worstLL = i, v
			}
		}
		copy(e.mean[j*d:(j+1)*d], e.x[worstI*d:(worstI+1)*d])
		e.weight[j] = 1 / float64(n)
		e.logW[j] = math.Log(e.weight[j])
		return true // covariance (and its factor) kept
	}
	e.weight[j] = nj / float64(n)
	e.logW[j] = math.Log(e.weight[j])
	meanj := e.mean[j*d : (j+1)*d]
	for c := range meanj {
		meanj[c] = 0
	}
	for i := 0; i < n; i++ {
		w := e.resp[i*k+j]
		xi := e.x[i*d : (i+1)*d]
		for c, v := range xi {
			meanj[c] += w * v
		}
	}
	for c := range meanj {
		meanj[c] /= nj
	}
	covj := e.cov[j*d*d : (j+1)*d*d]
	for c := range covj {
		covj[c] = 0
	}
	diff := e.pack[:d] // the E-step's panels are free during the M-step
	for i := 0; i < n; i++ {
		w := e.resp[i*k+j]
		if mat.IsZero(w) {
			continue
		}
		xi := e.x[i*d : (i+1)*d]
		for c := range xi {
			diff[c] = xi[c] - meanj[c]
		}
		for a := 0; a < d; a++ {
			wa := w * diff[a]
			row := covj[a*d : (a+1)*d]
			for b, dv := range diff {
				row[b] += wa * dv
			}
		}
	}
	s := 1 / nj
	for c := range covj {
		covj[c] *= s
	}
	for a := 0; a < d; a++ {
		covj[a*d+a] += e.reg
	}
	cholj := e.chol[j*d*d : (j+1)*d*d]
	if !cholFlat(covj, cholj, d) {
		return false
	}
	e.base[j] = float64(d)*log2Pi + logDetFlat(cholj, d)
	return true
}

// cholFlat factors the d×d row-major SPD matrix a into the
// lower-triangular l in place (upper entries of l are left untouched
// and never read), with mat.NewCholesky's exact operation order.
// Returns false when a pivot is not positive.
//
//mhm:hotpath
func cholFlat(a, l []float64, d int) bool {
	for j := 0; j < d; j++ {
		dd := a[j*d+j]
		lj := l[j*d : j*d+j]
		for _, v := range lj {
			dd -= v * v
		}
		if dd <= 0 || math.IsNaN(dd) {
			return false
		}
		ljj := math.Sqrt(dd)
		l[j*d+j] = ljj
		for i := j + 1; i < d; i++ {
			s := a[i*d+j]
			li := l[i*d : i*d+j]
			for k, v := range li {
				s -= v * lj[k]
			}
			l[i*d+j] = s / ljj
		}
	}
	return true
}

// logDetFlat is Cholesky.LogDet over a flat factor: 2·Σ ln L[i][i] in
// ascending order.
//
//mhm:hotpath
func logDetFlat(l []float64, d int) float64 {
	s := 0.0
	for i := 0; i < d; i++ {
		s += math.Log(l[i*d+i])
	}
	return 2 * s
}
