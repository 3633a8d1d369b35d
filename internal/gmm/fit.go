// The mixture fits as resumable jobs: Train's restarts and Refit's warm
// fit run as train.EMRuns, a bounded number of EM iterations per step,
// so the online refresh can spread a fit over many intervals (DESIGN.md
// §14.4).
package gmm

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/memheatmap/mhm/internal/mat"
	"github.com/memheatmap/mhm/internal/train"
)

// trainStepIters is the number of EM iterations a Train fit's step runs
// in each of its restarts: two restarts of two iterations each over the
// refresh's 192-sample window take about 0.3 ms side by side. A Refit
// step runs its whole warm fit, refitIter iterations.
const trainStepIters = 2

// fitStage is where a Fit stands.
type fitStage int

const (
	fitIdle fitStage = iota // no fit started, or the last one failed
	fitSeed                 // the next Step seeds Train's restarts
	fitEM                   // the next Step runs EM iterations in every fit
	fitDone                 // Model holds the mixture
)

// Fit is Train or Refit as a resumable job of bounded steps. StartTrain
// and StartRefit check the inputs; StartRefit also builds the warm fit.
// A Train fit's first Step seeds every restart (k-means++ and its Lloyd
// refinement) and builds its EM fit; each later Step runs
// trainStepIters EM iterations of every restart still running, side by
// side on up to Options.Workers goroutines that it joins before it
// returns. A Refit fit is one Step: its warm fit's refitIter
// iterations. The Step in which the last fit ends picks the model as
// Train or Refit does. Train and Refit are these fits stepped to
// completion, so every fit keeps their bits.
//
// Not safe for concurrent use.
type Fit struct {
	stage    fitStage
	refit    bool
	data     [][]float64
	opts     Options
	reg      float64
	fits     []restart
	model    *Model
	iters    int                   // EM iterations per fit in the current step
	dispatch func(lo, hi, idx int) // prebuilt per-restart step
}

// restart is one EM fit of a Fit.
type restart struct {
	run   *train.EMRun // nil once the fit has ended
	iters int          // E-steps run
	m     *Model
	ll    float64
	err   error
}

// StartTrain begins a Train fit of data, dropping any fit under way. It
// fails, as Train does, on invalid data or options.
func (f *Fit) StartTrain(data [][]float64, opts Options) error {
	f.reset()
	if err := opts.fill(); err != nil {
		return err
	}
	n := len(data)
	if n == 0 {
		return fmt.Errorf("gmm: empty training set: %w", ErrTraining)
	}
	d := len(data[0])
	if d == 0 {
		return fmt.Errorf("gmm: zero-dimensional data: %w", ErrTraining)
	}
	for i, x := range data {
		if len(x) != d {
			return fmt.Errorf("gmm: sample %d has dim %d, want %d: %w", i, len(x), d, ErrTraining)
		}
	}
	if opts.Components > n {
		return fmt.Errorf("gmm: %d components for %d samples: %w", opts.Components, n, ErrTraining)
	}
	f.reg = opts.Reg
	if mat.IsZero(f.reg) {
		f.reg = dataReg(data)
	}
	f.data, f.opts = data, opts
	f.fits = make([]restart, opts.Restarts)
	f.stage = fitSeed
	return nil
}

// StartRefit begins a Refit of prev over data, dropping any fit under
// way, and builds the warm fit. It fails, as Refit does, on an empty
// model or window, a sample of the wrong dimension, or a warm start EM
// rejects.
func (f *Fit) StartRefit(data [][]float64, prev *Model) error {
	f.reset()
	if prev == nil || len(prev.Components) == 0 {
		return fmt.Errorf("gmm: Refit: empty model: %w", ErrTraining)
	}
	n := len(data)
	if n == 0 {
		return fmt.Errorf("gmm: Refit: empty window: %w", ErrTraining)
	}
	k, d := len(prev.Components), prev.Dim()
	for i, x := range data {
		if len(x) != d {
			return fmt.Errorf("gmm: Refit: sample %d has dim %d, want %d: %w", i, len(x), d, ErrTraining)
		}
	}
	warm := &train.EMModel{
		K: k, D: d,
		Weights: make([]float64, k),
		Means:   make([]float64, k*d),
		Covs:    make([]float64, k*d*d),
	}
	for j := 0; j < k; j++ {
		c := &prev.Components[j]
		warm.Weights[j] = c.Weight
		copy(warm.Means[j*d:(j+1)*d], c.Mean)
		for a := 0; a < d; a++ {
			copy(warm.Covs[j*d*d+a*d:j*d*d+(a+1)*d], c.Cov.Row(a))
		}
	}
	run, err := train.NewEMRun(data, nil, train.EMConfig{
		K:       k,
		MaxIter: refitIter,
		Tol:     1e-6,
		Reg:     dataReg(data),
		Warm:    warm,
	})
	if err != nil {
		return fmt.Errorf("gmm: Refit: %w", err)
	}
	f.refit = true
	f.fits = []restart{{run: run}}
	f.stage = fitEM
	return nil
}

// reset drops any fit under way and the references it held.
func (f *Fit) reset() {
	f.stage, f.refit, f.data, f.fits, f.model = fitIdle, false, nil, nil, nil
	f.opts = Options{}
}

// Step runs the fit's next step and reports whether the fit is done,
// with the mixture in Model. After an error, or once the fit is done,
// Step does nothing until the next Start.
//
//mhm:deterministic
func (f *Fit) Step() (bool, error) {
	if f.refit {
		return f.step(refitIter)
	}
	return f.step(trainStepIters)
}

// step is Step with up to iters EM iterations per fit.
func (f *Fit) step(iters int) (bool, error) {
	f.iters = iters
	if f.dispatch == nil {
		f.dispatch = func(r, _, _ int) { f.stepRestart(r) }
	}
	switch f.stage {
	case fitSeed, fitEM:
		// Each fit draws from its own generator and writes only its own
		// slot, so every assignment of fits to goroutines steps them
		// alike.
		train.Chunks(len(f.fits), 1, f.opts.Workers, f.dispatch)
		if f.stage == fitSeed {
			f.stage = fitEM
			return false, nil
		}
		for _, r := range f.fits {
			if r.run != nil {
				return false, nil
			}
		}
		return f.pick()
	default:
		return f.stage == fitDone, nil
	}
}

// Model returns the fitted mixture once the fit is done, else nil.
func (f *Fit) Model() *Model { return f.model }

// Iterations returns the EM iterations (E-steps) the fit has run, summed
// over its restarts, a failed fit's included.
func (f *Fit) Iterations() int {
	n := 0
	for _, r := range f.fits {
		n += r.iters
	}
	return n
}

// run steps the fit to completion, each fit's EM in one step, so every
// restart runs start to end on one goroutine.
func (f *Fit) run() (*Model, error) {
	for {
		done, err := f.step(math.MaxInt)
		if err != nil {
			return nil, err
		}
		if done {
			return f.Model(), nil
		}
	}
}

// stepRestart advances fit r by one step: at fitSeed it seeds the
// restart from the (Seed, r) generator (seedRun); at fitEM it runs the
// step's EM iterations and, when the fit ends, turns it into a prepared
// Model.
func (f *Fit) stepRestart(r int) {
	fit := &f.fits[r]
	if f.stage == fitSeed {
		rng := rand.New(rand.NewSource(f.opts.Seed + int64(r)*0x9E3779B9))
		fit.run, fit.err = seedRun(f.data, f.opts.Components, f.opts.MaxIter, f.opts.Tol, f.reg, rng)
		return
	}
	if fit.run == nil {
		return
	}
	done, err := fit.run.Step(f.iters)
	fit.iters = fit.run.Iterations()
	if !done {
		return
	}
	switch {
	case err != nil && f.refit:
		fit.err = fmt.Errorf("gmm: Refit: %w", err)
	case err != nil:
		fit.err = fmt.Errorf("gmm: component covariance: %w", err)
	default:
		em := fit.run.Model()
		fit.m, fit.err = modelFromFit(em)
		fit.ll = em.LogLikelihood
	}
	fit.run = nil
}

// seedRun seeds one restart of Train: k-means++ means from rng, refined
// by Lloyd iterations, and an EM fit from them with a shared spherical
// covariance of the overall variance.
func seedRun(data [][]float64, k, maxIter int, tol, reg float64, rng *rand.Rand) (*train.EMRun, error) {
	means := kmeansSeed(data, k, rng)
	v := dataVariance(data)
	if v <= 0 {
		v = 1
	}
	run, err := train.NewEMRun(data, means, train.EMConfig{
		K:       k,
		MaxIter: maxIter,
		Tol:     tol,
		Reg:     reg,
		InitVar: v,
	})
	if err != nil {
		return nil, fmt.Errorf("gmm: component covariance: %w", err)
	}
	return run, nil
}

// pick ends the fit: Refit's model, or the Train restart with the
// highest training log-likelihood (the first such restart on a tie).
func (f *Fit) pick() (bool, error) {
	var best *Model
	bestLL := math.Inf(-1)
	var lastErr error
	for _, r := range f.fits {
		if r.err != nil {
			lastErr = r.err
			continue
		}
		if r.ll > bestLL || f.refit {
			best, bestLL = r.m, r.ll
		}
	}
	if best == nil {
		err := lastErr
		if !f.refit {
			err = fmt.Errorf("gmm: all %d restarts failed: %w", len(f.fits), lastErr)
		}
		f.stage, f.data = fitIdle, nil
		return false, err
	}
	f.model, f.stage, f.data = best, fitDone, nil
	return true, nil
}
