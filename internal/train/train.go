// Package train is the fused, zero-steady-state-allocation training
// engine behind gmm.Train and pca.Train (DESIGN.md §9). It owns the
// blocked EM inner loop — a per-iteration log-density matrix computed
// once through a fused Cholesky forward substitution that solves eight
// samples at a time, responsibilities and the total log-likelihood
// derived from that single matrix, and the per-component M-step — plus
// the tiled mean/Φ/variance build of the eigenmemory covariance, and
// Centered, the sliding-window form of that build the online refresh
// keeps, whose updates pay only for the cells each sample occupies.
//
// An EM fit runs on the calling goroutine: at the paper's shapes one
// iteration is too small to split, so callers spend their goroutines on
// independent fits instead (gmm.Train runs its restarts side by side
// through Chunks).
//
// Determinism contract: for a fixed input, every result is bit-identical
// for every worker count, including the serial run. Dimension tiles and
// the chunks of Chunks form a fixed grid that depends only on the
// problem size; each chunk writes disjoint state, and the cross-tile
// variance partials fold in ascending tile index. Centered.Update runs
// serially and folds each tile's variance partial in the order the
// tiled pass would. The per-sample and per-component arithmetic
// reproduces the operation order of the staged gmm/pca paths exactly, so
// models trained through this engine match the historical fits bit for
// bit.
package train

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned when a component covariance loses positive
// definiteness during the M-step (regularization too small for the
// data); the caller abandons that restart.
var ErrNotSPD = errors.New("train: covariance not positive definite")

const log2Pi = 1.8378770664093453 // ln(2π)

// EMConfig tunes one EM fit.
type EMConfig struct {
	// K is the number of mixture components.
	K int
	// MaxIter bounds EM iterations.
	MaxIter int
	// Tol stops iterating when the total log-likelihood improves by less
	// than Tol.
	Tol float64
	// Reg is the diagonal covariance regularization.
	Reg float64
	// InitVar is the initial shared spherical variance (Reg is added on
	// the diagonal on top of it).
	InitVar float64
	// Warm, when non-nil, seeds the fit from an existing model instead
	// of the spherical initializer: weights, means and covariances are
	// copied and the covariances Cholesky-factored up front. initMeans
	// is ignored (may be nil); K and the sample dimension must match the
	// model, and every covariance must still be SPD.
	Warm *EMModel
}

// EMModel is a fitted mixture in flat form: component j's mean occupies
// Means[j*D:(j+1)*D] and its covariance Covs[j*D*D:(j+1)*D*D],
// row-major.
type EMModel struct {
	K, D    int
	Weights []float64
	Means   []float64
	Covs    []float64
	// LogLikelihood is the total training log-likelihood at the stopping
	// E-step (the restart-selection criterion).
	LogLikelihood float64
}

// EMFit runs one EM fit from the given initial means (one slice per
// component, typically from k-means++ seeding). data is not modified;
// the returned model owns its storage. It is an EMRun stepped to
// completion.
//
//mhm:deterministic
//mhmlint:ignore deadapi the one-shot form of EMRun: TestEMFitGoldenBits and the EM tests pin their bits through it
func EMFit(data [][]float64, initMeans [][]float64, cfg EMConfig) (*EMModel, error) {
	r, err := NewEMRun(data, initMeans, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := r.Step(cfg.MaxIter); err != nil {
		return nil, err
	}
	return r.Model(), nil
}

// EMRun is one EM fit as a resumable loop, so a caller with a
// per-interval time budget can spread a fit over many intervals
// (DESIGN.md §14.4): NewEMRun packs the data and builds the initial
// model, and each Step runs a bounded number of iterations. The
// iterations are EMFit's, in its order, so a run stepped to completion
// has EMFit's bits however its iterations are split across Steps.
type EMRun struct {
	e      *em
	cfg    EMConfig
	iter   int // E-steps run
	prevLL float64
	done   bool
}

// NewEMRun starts an EM fit as EMFit does, without running an
// iteration.
func NewEMRun(data [][]float64, initMeans [][]float64, cfg EMConfig) (*EMRun, error) {
	n := len(data)
	if n == 0 || cfg.K <= 0 || (cfg.Warm == nil && len(initMeans) != cfg.K) {
		return nil, fmt.Errorf("train: EMFit: %d samples, %d components, %d initial means", n, cfg.K, len(initMeans))
	}
	d := len(data[0])
	if cfg.Warm != nil && (cfg.Warm.K != cfg.K || cfg.Warm.D != d) {
		return nil, fmt.Errorf("train: EMFit: warm model is %d×%d, fit wants %d×%d", cfg.Warm.K, cfg.Warm.D, cfg.K, d)
	}
	e, err := newEM(data, initMeans, cfg)
	if err != nil {
		return nil, err
	}
	return &EMRun{e: e, cfg: cfg, prevLL: math.Inf(-1), done: cfg.MaxIter <= 0}, nil
}

// Step runs up to iters more iterations and reports whether the fit has
// ended: it stopped on the likelihood tolerance or ran MaxIter
// iterations. An iteration is an E-step and, unless the fit stops
// there, an M-step. A component whose covariance stops factoring fails
// the fit.
//
//mhm:deterministic
func (r *EMRun) Step(iters int) (bool, error) {
	e := r.e
	for i := 0; i < iters && !r.done; i++ {
		e.eStep()
		ll := e.sumLL()
		r.iter++
		if r.iter > 1 && ll-r.prevLL < r.cfg.Tol {
			r.prevLL, r.done = ll, true
			break
		}
		r.prevLL = ll
		if bad := e.mStep(); bad >= 0 {
			r.done = true
			return true, fmt.Errorf("train: component %d: %w", bad, ErrNotSPD)
		}
		r.done = r.iter >= r.cfg.MaxIter
	}
	return r.done, nil
}

// Iterations returns the number of E-steps run so far.
func (r *EMRun) Iterations() int { return r.iter }

// Model returns the fit in its current state, with the log-likelihood
// of its last E-step; once Step has reported the end, the fitted
// model. The model shares the run's storage, so the run must not step
// again.
func (r *EMRun) Model() *EMModel {
	e := r.e
	return &EMModel{
		K:             e.k,
		D:             e.d,
		Weights:       e.weight,
		Means:         e.mean,
		Covs:          e.cov,
		LogLikelihood: r.prevLL,
	}
}

// em is the preallocated per-restart state: after newEM, an iteration
// (eStep + sumLL + mStep) allocates nothing.
type em struct {
	n, d, k int
	reg     float64

	x    []float64 // n×d packed samples
	resp []float64 // n×k: log-density terms, then responsibilities in place
	ll   []float64 // per-sample log-likelihood of the current E-step

	weight []float64 // k mixing weights
	logW   []float64 // k: ln weight, refreshed each M-step
	mean   []float64 // k×d
	cov    []float64 // k×d×d row-major
	chol   []float64 // k×d×d lower-triangular factors of cov
	base   []float64 // k: d·ln(2π) + logdet, the density constant

	pack []float64 // E-step diff/y panels, 16·d floats; M-step diff scratch
}

// newEM packs the data and builds the initial model: the caller's means
// with uniform weights and a shared spherical covariance InitVar+Reg,
// or — warm start — the given model's weights, means and covariances,
// factored up front.
func newEM(data [][]float64, initMeans [][]float64, cfg EMConfig) (*em, error) {
	n, d, k := len(data), len(data[0]), cfg.K
	e := &em{
		n: n, d: d, k: k,
		reg:    cfg.Reg,
		x:      make([]float64, n*d),
		resp:   make([]float64, n*k),
		ll:     make([]float64, n),
		weight: make([]float64, k),
		logW:   make([]float64, k),
		mean:   make([]float64, k*d),
		cov:    make([]float64, k*d*d),
		chol:   make([]float64, k*d*d),
		base:   make([]float64, k),
		pack:   make([]float64, 16*d),
	}
	for i, v := range data {
		copy(e.x[i*d:(i+1)*d], v)
	}
	if w := cfg.Warm; w != nil {
		copy(e.weight, w.Weights)
		copy(e.mean, w.Means)
		copy(e.cov, w.Covs)
		for j := 0; j < k; j++ {
			if !(e.weight[j] > 0) {
				return nil, fmt.Errorf("train: warm component %d has weight %v", j, e.weight[j])
			}
			e.logW[j] = math.Log(e.weight[j])
			cholj := e.chol[j*d*d : (j+1)*d*d]
			if !cholFlat(e.cov[j*d*d:(j+1)*d*d], cholj, d) {
				return nil, fmt.Errorf("train: warm component %d: %w", j, ErrNotSPD)
			}
			e.base[j] = float64(d)*log2Pi + logDetFlat(cholj, d)
		}
	} else {
		v0 := cfg.InitVar + cfg.Reg
		for j := 0; j < k; j++ {
			copy(e.mean[j*d:(j+1)*d], initMeans[j])
			e.weight[j] = 1 / float64(k)
			e.logW[j] = math.Log(e.weight[j])
			covj := e.cov[j*d*d : (j+1)*d*d]
			for a := 0; a < d; a++ {
				covj[a*d+a] = v0
			}
			// The spherical initial covariance is SPD by construction.
			cholFlat(covj, e.chol[j*d*d:(j+1)*d*d], d)
			e.base[j] = float64(d)*log2Pi + logDetFlat(e.chol[j*d*d:(j+1)*d*d], d)
		}
	}
	return e, nil
}

// sumLL folds the per-sample log-likelihoods in ascending sample order —
// the same order the staged E-step accumulated them.
func (e *em) sumLL() float64 {
	s := 0.0
	for _, v := range e.ll {
		s += v
	}
	return s
}

// mStep updates weights, means and covariances from resp, one
// component at a time. It returns the index of the first component
// whose covariance failed to factor, or -1.
func (e *em) mStep() int {
	for j := 0; j < e.k; j++ {
		if !e.mStepComponent(j) {
			return j
		}
	}
	return -1
}
