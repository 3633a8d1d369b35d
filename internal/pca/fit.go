// The eigenmemory fits as resumable jobs: Train and Refresh split into
// a build, a solve stepped one subspace iteration at a time, and a
// finish, so the online refresh can spread a fit over many intervals
// (DESIGN.md §14.4).
package pca

import (
	"fmt"
	"math"
	"runtime"

	"github.com/memheatmap/mhm/internal/mat"
	"github.com/memheatmap/mhm/internal/train"
)

// fitStage is where a Fit stands.
type fitStage int

const (
	fitIdle  fitStage = iota // no fit started, or the last one failed
	fitBuild                 // the next Step builds the mean, Φ and total variance
	fitSolve                 // the next Step advances the eigen-solve
	fitDone                  // Model holds the fitted basis
)

// Fit is Train or Refresh as a resumable job of bounded steps.
// StartTrain and StartRefresh check the inputs and do no other work. A
// Train fit's first Steps are the build: the mean, Φ and total variance
// over the training set, one dimension tile of train.CenteredBuild per
// Step. Then come the steps of the eigen-solve (mat.TopK: the start
// block with the restriction, one subspace iteration each, the final
// Rayleigh quotients), and the Step that ends the solve also runs the
// finish, which assembles the Model. Train and Refresh are these fits
// run to completion — Train builds every tile at once, on its Workers —
// so every fit keeps their bits.
//
// A Fit keeps its scratch from one fit to the next: the solve's blocks
// (mat.TopK) and the storage of the build's Φ, which Reserve can size
// ahead of the first fit. The Model owns its storage. Not safe for
// concurrent use.
type Fit struct {
	solve mat.TopK
	stage fitStage
	model *Model

	solveIn string // names the solve in its errors

	// Train's inputs and build.
	opts     Options
	maxK     int
	build    train.CenteredBuild // keeps Φ's storage between fits
	mean     []float64
	totalVar float64

	// Refresh's input; nil for a Train fit.
	sk *train.Centered
}

// StartTrain begins a Train fit of set, dropping any fit under way. It
// fails, as Train does, on an invalid set or options.
func (f *Fit) StartTrain(set [][]float64, opts Options) error {
	f.reset()
	if err := opts.fill(); err != nil {
		return err
	}
	n := len(set)
	if n < 2 {
		return fmt.Errorf("pca: need at least 2 training MHMs, got %d: %w", n, ErrTraining)
	}
	l := len(set[0])
	if l == 0 {
		return fmt.Errorf("pca: zero-length MHMs: %w", ErrTraining)
	}
	for i, v := range set {
		if len(v) != l {
			return fmt.Errorf("pca: MHM %d has length %d, want %d: %w", i, len(v), l, ErrTraining)
		}
	}
	// The covariance of N samples in L dims has rank ≤ min(L, N); asking
	// for more eigenpairs than that is a caller bug for explicit
	// Components, and silently capped during automatic selection.
	rank := min(l, n)
	if opts.Components > rank {
		return fmt.Errorf("pca: %d components from %d samples in %d dims: %w",
			opts.Components, n, l, ErrTraining)
	}
	maxK := opts.MaxComponents
	if opts.Components > 0 {
		maxK = opts.Components
	}
	f.opts, f.maxK = opts, min(maxK, rank)
	f.solveIn = "pca: eigendecomposition"
	f.build.Start(set)
	f.stage = fitBuild
	return nil
}

// StartRefresh begins a Refresh fit of sk's window from prev, dropping
// any fit under way. It fails, as Refresh does, on a nil or mismatched
// model or sketch or a window too thin for prev's L′.
func (f *Fit) StartRefresh(prev *Model, sk *train.Centered, opts RefreshOptions) error {
	f.reset()
	if prev == nil || sk == nil {
		return fmt.Errorf("pca: Refresh: nil model or sketch: %w", ErrTraining)
	}
	l, lp := prev.Dim()
	if sk.Dim() != l {
		return fmt.Errorf("pca: Refresh: sketch dim %d, model dim %d: %w", sk.Dim(), l, ErrTraining)
	}
	if sk.Len() < 2 || sk.Len() < lp {
		return fmt.Errorf("pca: Refresh: %d window samples for %d components: %w", sk.Len(), lp, ErrTraining)
	}
	f.sk = sk
	f.solveIn = "pca: Refresh: eigendecomposition"
	if err := f.solve.Start(sk, lp, mat.TopKOptions{
		MaxIter:  refreshIter,
		Seed:     refreshSeed,
		Parallel: opts.Parallel,
		Init:     prev.Components,
	}); err != nil {
		return fmt.Errorf("%s: %w", f.solveIn, err)
	}
	f.stage = fitSolve
	return nil
}

// reset drops any fit under way and the references it held.
func (f *Fit) reset() {
	f.stage, f.model, f.mean, f.sk = fitIdle, nil, nil, nil
}

// Reserve sizes the storage of a Train fit's Φ for a set of n samples
// of length l (train.CenteredBuild.Reserve), so that no fit up to that
// size allocates it in a step.
func (f *Fit) Reserve(l, n int) { f.build.Reserve(l, n) }

// Step runs the fit's next step and reports whether the fit is done,
// with the basis in Model. After an error, or once the fit is done,
// Step does nothing until the next Start.
//
//mhm:deterministic
func (f *Fit) Step() (bool, error) { return f.step(1) }

// step is Step with a build step of up to tiles dimension tiles.
func (f *Fit) step(tiles int) (bool, error) {
	switch f.stage {
	case fitBuild:
		if err := f.buildTiles(tiles); err != nil {
			f.reset()
			return false, err
		}
		return false, nil
	case fitSolve:
		done, err := f.solve.Step()
		if err != nil {
			f.reset()
			return false, fmt.Errorf("%s: %w", f.solveIn, err)
		}
		if done {
			f.finish()
		}
		return done, nil
	default:
		return f.stage == fitDone, nil
	}
}

// Model returns the fitted basis once the fit is done, else nil.
func (f *Fit) Model() *Model { return f.model }

// SolveStats describes the fit's eigen-solve so far.
func (f *Fit) SolveStats() mat.TopKStats { return f.solve.Stats() }

// run steps the fit to completion, its build in one step.
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

// buildTiles builds up to tiles more dimension tiles of Ψ = mean, Φ =
// mean-shifted columns and the total variance (bit-identical for every
// split and worker count) and, once every tile is built, starts the
// solve on Φ's Gram operator.
func (f *Fit) buildTiles(tiles int) error {
	workers := f.opts.Workers
	if workers <= 0 {
		workers = 1
		if f.opts.Parallel {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	if !f.build.Tiles(tiles, workers) {
		return nil
	}
	mean, phi, totalVar := f.build.Result()
	f.mean, f.totalVar = mean, totalVar
	if err := f.solve.Start(mat.NewGramOp(phi), f.maxK, mat.TopKOptions{Seed: f.opts.Seed, Parallel: f.opts.Parallel}); err != nil {
		return fmt.Errorf("%s: %w", f.solveIn, err)
	}
	f.stage = fitSolve
	return nil
}

// finish assembles the Model from the finished solve.
func (f *Fit) finish() {
	eig := f.solve.Result()
	if f.sk != nil {
		l := f.sk.Dim()
		mean := make([]float64, l)
		copy(mean, f.sk.Mean())
		f.model = &Model{
			Mean:          mean,
			Components:    eig.Vectors,
			Values:        eig.Values,
			TotalVariance: f.sk.TotalVar(),
		}
	} else {
		f.model = f.trainModel(eig)
	}
	f.stage = fitDone
	f.mean, f.sk = nil, nil
}

// trainModel keeps the leading eigenpairs of a Train fit: L′ of them
// when Components fixes it, else the fewest that explain
// VarianceFraction of the total variance.
func (f *Fit) trainModel(eig *mat.Eigen) *Model {
	k := f.maxK
	if f.opts.Components == 0 {
		// Variance-driven selection.
		cum := 0.0
		for i, v := range eig.Values {
			if v > 0 {
				cum += v
			}
			if f.totalVar > 0 && cum/f.totalVar >= f.opts.VarianceFraction {
				k = i + 1
				break
			}
		}
	}
	l := eig.Vectors.Rows()
	comps := mat.New(l, k)
	for j := 0; j < k; j++ {
		for i := 0; i < l; i++ {
			comps.Set(i, j, eig.Vectors.At(i, j))
		}
	}
	return &Model{
		Mean:          f.mean,
		Components:    comps,
		Values:        append([]float64(nil), eig.Values[:k]...),
		TotalVariance: f.totalVar,
	}
}
