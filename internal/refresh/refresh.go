// Package refresh is the online model-maintenance engine (DESIGN.md
// §14): it keeps a live detector current against workload drift at a
// small fraction of a full retrain. The fast path chains the
// incremental machinery the training stack grew for it — the
// sliding-window covariance sketch (train.Centered, whose updates pay
// only for each interval's occupied cells, with zero allocations),
// warm-started subspace iteration from the previous eigenmemory basis
// (pca.Refresh), and warm-start EM seeded from the live mixture
// (gmm.Refit, a small bounded number of blocked iterations) — then
// recalibrates the θ_p thresholds on a sliding held-out window of
// recent normal intervals. A one-sided CUSUM over the standardized
// holdout densities (ensemble.CusumState) raises a drift alarm when the
// normal-density distribution shifts; the next Refresh then takes the
// slow path, a full from-scratch retrain over the window, and
// re-baselines the drift channel.
//
// Determinism contract: for a fixed observation history every refreshed
// model is bit-identical for every worker count, including under -race
// — the sketch updates serially, and every other input flows through
// the training engines' fixed chunk grids and the sequential rings
// here.
package refresh

import (
	"errors"
	"fmt"
	"math"

	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/ensemble"
	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/mat"
	"github.com/memheatmap/mhm/internal/pca"
	"github.com/memheatmap/mhm/internal/stats"
	"github.com/memheatmap/mhm/internal/train"
)

// ErrConfig wraps invalid configuration.
var ErrConfig = errors.New("refresh: invalid config")

// ErrNotReady reports a Refresh attempted before the training window
// holds enough samples for the model's dimensionality.
var ErrNotReady = errors.New("refresh: training window not ready")

// ErrNonFinite reports an observed vector with a NaN or ±Inf entry.
var ErrNonFinite = errors.New("refresh: non-finite interval vector")

// Config tunes a Refresher.
type Config struct {
	// Window is the sliding training-window capacity in intervals
	// (default 192, the simulator's training-set size).
	Window int
	// Holdout is the held-out calibration window capacity (default 64;
	// negative disables the holdout entirely, so θ_p carries over and no
	// drift channel is fitted). Every fourth observed normal interval
	// goes to it instead of the training window; θ_p recalibration and
	// the drift channel are fitted on it.
	Holdout int
	// Workers bounds the goroutines of the full rebuild: its EM
	// restarts run side by side, and pca.Train's build and the sketch
	// Rebuild split their dimension tiles. Above 1 it also splits the
	// PCA block apply of both paths. Observe and the warm EM refit run
	// serially. Results are bit-identical for every value.
	Workers int
}

const (
	// holdoutEvery routes every 4th observed normal interval to the
	// holdout window, unless Holdout disables it.
	holdoutEvery = 4
	// driftThreshold is the CUSUM accumulator level (in |z| units, with
	// allowance ensemble.DriftK) that raises the drift alarm.
	driftThreshold = 16
	// rebuildSeed seeds the full rebuild's PCA and EM restarts.
	rebuildSeed = 1
)

func (c *Config) fill() {
	if c.Window == 0 {
		c.Window = 192
	}
	if c.Holdout == 0 {
		c.Holdout = 64
	} else if c.Holdout < 0 {
		c.Holdout = 0
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
}

// Result describes one completed refresh. Its counts come from the
// steps the refresh ran, never from a clock, so they are the same on
// every machine and at every worker count.
type Result struct {
	// Detector is the refreshed model with the fused scoring runtime
	// installed and the recalibrated thresholds.
	Detector *core.Detector
	// FullRebuild reports the slow path ran (a drift alarm, or a warm fit
	// that failed).
	FullRebuild bool
	// Recalibrated reports whether θ_p was re-derived from the holdout
	// window; false (thresholds carried over) when the holdout is empty.
	Recalibrated bool
	// DriftStat is the CUSUM accumulator value entering the refresh.
	DriftStat float64
	// WindowLen and HoldoutLen are the window fills at refresh time.
	WindowLen, HoldoutLen int
	// Steps counts the bounded steps the refresh ran (DESIGN.md §14.4),
	// the completing one included.
	Steps int
	// EigenIterations counts the subspace iterations of the refresh's
	// eigen-solves, and EigenConverged reports that the last solve
	// stopped at the 1e-10 Ritz-value tolerance rather than at its
	// iteration cap (8 on the warm path).
	EigenIterations int
	EigenConverged  bool
	// FallbackSteps counts the steps that applied the covariance at full
	// dimension after a run on its support stopped (mat.TopK): the one
	// kind of step the per-step bound does not cover.
	FallbackSteps int
	// EMIterations counts the EM iterations (E-steps) of the refresh's
	// mixture fits, summed over the full rebuild's restarts.
	EMIterations int
}

// Refresher maintains one detector's model state online. Not safe for
// concurrent use: Observe and Refresh run on the caller's sequential
// decision pass (the fleet simulator's verdict loop, or a single
// maintenance goroutine).
type Refresher struct {
	cfg    Config
	region heatmap.Def
	l, lp  int

	pcaM       *pca.Model
	gmmM       *gmm.Model
	thresholds []core.Threshold

	sketch *train.Centered
	cells  []int32 // Observe's list of occupied cells, capacity L

	hold     [][]float64 // Holdout ring rows of length L, one backing
	holdN    int
	holdHead int

	reduced [][]float64 // Window rows of length L', reused per refresh
	redBack []float64
	set     [][]float64 // Window sample views, reused by the rebuild path
	dens    []float64   // holdout density scratch
	pf      pca.Fit     // the eigenmemory fit, its solve and Φ storage kept
	gf      gmm.Fit     // the mixture fit

	channel ensemble.Channel
	chanOK  bool
	cusum   ensemble.CusumState
	drift   bool

	seen int

	refreshes, fullRebuilds, driftAlarms int
}

// New builds a Refresher seeded from a live detector. The detector's
// models are referenced as the warm-start state; they are not modified.
// Every refresh recalibrates θ_p at the P values of the detector's
// thresholds.
func New(det *core.Detector, cfg Config) (*Refresher, error) {
	if det == nil || det.PCA == nil || det.GMM == nil {
		return nil, fmt.Errorf("refresh: nil detector or models: %w", ErrConfig)
	}
	cfg.fill()
	l, lp := det.PCA.Dim()
	if cfg.Window < lp+2 {
		return nil, fmt.Errorf("refresh: window %d below L'+2=%d: %w", cfg.Window, lp+2, ErrConfig)
	}
	sk, err := train.NewCentered(l, cfg.Window, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("refresh: %w", err)
	}
	hold := make([]float64, cfg.Holdout*l)
	r := &Refresher{
		cfg:        cfg,
		region:     det.Region,
		l:          l,
		lp:         lp,
		pcaM:       det.PCA,
		gmmM:       det.GMM,
		thresholds: append([]core.Threshold(nil), det.Thresholds...),
		sketch:     sk,
		cells:      make([]int32, l),
		hold:       make([][]float64, cfg.Holdout),
		reduced:    make([][]float64, cfg.Window),
		redBack:    make([]float64, cfg.Window*lp),
		set:        make([][]float64, cfg.Window),
		dens:       make([]float64, cfg.Holdout),
	}
	for i := range r.reduced {
		r.reduced[i] = r.redBack[i*lp : (i+1)*lp]
	}
	// The full rebuild's Φ is as large as the window ring; sizing it here
	// keeps its allocation out of the job's steps.
	r.pf.Reserve(l, cfg.Window)
	for i := range r.hold {
		r.hold[i] = hold[i*l : (i+1)*l]
	}
	return r, nil
}

// Observe feeds one normal (non-anomalous-verdict) interval: its raw
// MHM vector and the log density the live model assigned it. Every
// holdoutEvery-th interval lands in the held-out calibration ring; the
// rest update the training sketch. The density drives the drift CUSUM.
// One scan lists v's occupied cells; the finiteness check and the
// sketch update read only those. A vector with a NaN or ±Inf entry is
// rejected before any state changes: in the holdout it would drag θ_p
// to −Inf, and in the sketch it would poison the running sums for good.
// Zero allocations in steady state; v is copied, not retained.
//
//mhm:deterministic
func (r *Refresher) Observe(v []float64, logDensity float64) error {
	if len(v) != r.l {
		return fmt.Errorf("refresh: vector length %d, want %d: %w", len(v), r.l, ErrConfig)
	}
	cells := r.cells[:occupiedCells(r.cells, v)]
	for _, i := range cells {
		if !mat.IsFinite(v[i]) {
			return fmt.Errorf("refresh: vector entry %d is %v: %w", i, v[i], ErrNonFinite)
		}
	}
	r.seen++
	if r.chanOK {
		z := r.channel.Z(logDensity)
		s := r.cusum.Step(math.Abs(z), ensemble.DriftK)
		if s >= driftThreshold && !r.drift {
			r.drift = true
			r.driftAlarms++
		}
	}
	if r.cfg.Holdout > 0 && r.seen%holdoutEvery == 0 {
		copy(r.hold[r.holdHead], v)
		r.holdHead = (r.holdHead + 1) % r.cfg.Holdout
		if r.holdN < r.cfg.Holdout {
			r.holdN++
		}
		return nil
	}
	return r.sketch.Update(v, cells)
}

// occupiedCells lists, ascending, the cells where v is not ±0 into
// cells (capacity len(v)) and returns how many there are; NaN, ±Inf and
// subnormals count. It reads v four cells at a time and skips a group
// whose four cells are all empty with one compare, as
// score.occupiedCounts skips empty counts.
//
//mhm:hotpath
//mhm:deterministic
func occupiedCells(cells []int32, v []float64) int {
	n, l4 := 0, len(v)&^3
	for i := 0; i < l4; i += 4 {
		w := v[i : i+4 : i+4]
		if (math.Float64bits(w[0])|math.Float64bits(w[1])|math.Float64bits(w[2])|math.Float64bits(w[3]))<<1 == 0 {
			continue
		}
		for k, x := range w {
			if math.Float64bits(x)<<1 != 0 {
				cells[n] = int32(i + k)
				n++
			}
		}
	}
	for i := l4; i < len(v); i++ {
		if math.Float64bits(v[i])<<1 != 0 {
			cells[n] = int32(i)
			n++
		}
	}
	return n
}

// Ready reports whether the training window holds enough samples to
// refresh the model.
func (r *Refresher) Ready() bool { return r.sketch.Len() >= r.lp+2 }

// Counters returns (refreshes, full rebuilds, drift alarms) so far.
func (r *Refresher) Counters() (int, int, int) {
	return r.refreshes, r.fullRebuilds, r.driftAlarms
}

// Refresh derives a new detector from the current windows. The fast
// path warm-starts both models from the live ones; a drift alarm forces
// the full from-scratch path (which also re-derives the sketch sums
// exactly). θ_p is recalibrated on the holdout window when it is
// non-empty, at the P values of the seed detector's thresholds; an empty
// holdout carries the previous thresholds over. The refreshed models
// become the next warm-start state. A failed refresh publishes nothing.
// It is a refresh job stepped to completion.
//
//mhm:deterministic
func (r *Refresher) Refresh() (*Result, error) { return r.refresh(r.drift) }

// refresh runs a refresh job to completion: on the full path when full
// is set, and otherwise on the warm path, falling back to the full one
// when the warm fit fails.
func (r *Refresher) refresh(full bool) (*Result, error) {
	j, err := r.start(full)
	if err != nil {
		return nil, err
	}
	for {
		done, err := j.step()
		if err != nil {
			return nil, err
		}
		if done {
			return &j.res, nil
		}
	}
}

// jobStage is where a refresh job stands.
type jobStage int

const (
	stageRebuild jobStage = iota // full path: exact sketch sums, start the PCA fit
	stagePCA                     // a step of the eigenmemory fit; the last projects the window
	stageGMM                     // a step of the mixture fit
	stagePublish                 // recalibrate θ_p and publish
	stageDone                    // the job ended, published or failed
)

// job is one refresh split into bounded steps (DESIGN.md §14.4), so the
// fleet loop can run it one step per scored interval. Each step is one
// pass of a loop of the model fits (mat.TopK inside pca.Fit, gmm.Fit)
// or one stage of the refresh around them:
//
//   - warm path: the start block and the support restriction; one
//     subspace iteration per step; the final Ritz values and the window
//     projection; the warm EM; θ_p recalibration and the publish.
//   - full path: the exact sketch sums; the Φ build, one 512-cell tile
//     per step; the start block, eight rows per step, and the
//     restriction of Φ's Gram operator with its last rows; one subspace
//     iteration per step; the final Ritz values and the window
//     projection; k-means seeding of both restarts; two EM iterations of
//     both restarts side by side per step; θ_p recalibration and the
//     publish.
//
// The fits' steps keep their one-shot forms' arithmetic and order, so
// however the steps are spread over calls the job publishes the bits of
// a Refresh of the windows as they stood at its start. The windows must
// not change while a job runs: the Loop defers every observation until
// the job ends. Steps are counted, never timed. A job holds no
// goroutine between steps; a dropped job is garbage like any other
// value.
type job struct {
	r     *Refresher
	n     int // window samples at the trigger
	full  bool
	stage jobStage
	res   Result

	newPCA *pca.Model
	newGMM *gmm.Model
}

// start begins a refresh job over the current windows, on the full path
// when full is set. It does no fitting work.
func (r *Refresher) start(full bool) (*job, error) {
	n := r.sketch.Len()
	if n < r.lp+2 {
		return nil, fmt.Errorf("refresh: %d window samples for L'=%d: %w", n, r.lp, ErrNotReady)
	}
	j := &job{r: r, n: n, res: Result{
		DriftStat:  r.cusum.S,
		WindowLen:  n,
		HoldoutLen: r.holdN,
	}}
	j.begin(full)
	return j, nil
}

// begin puts the job at the start of the full or the warm path.
func (j *job) begin(full bool) {
	r := j.r
	if !full {
		// A warm fit that cannot start takes the full path, as one that
		// fails does.
		full = r.pf.StartRefresh(r.pcaM, r.sketch, pca.RefreshOptions{Parallel: r.cfg.Workers > 1}) != nil
	}
	j.full, j.stage = full, stagePCA
	if full {
		j.stage = stageRebuild
	}
}

// step runs the job's next step and reports whether the job has ended.
// A job that ends without an error has the refreshed detector in j.res;
// an error ends the job and publishes nothing. A warm fit that fails
// moves the job onto the full path, which starts at the next step.
//
//mhm:deterministic
func (j *job) step() (bool, error) {
	r := j.r
	if j.stage == stageDone {
		return true, nil
	}
	j.res.Steps++
	switch j.stage {
	case stageRebuild:
		// Discard the incremental sums' rounding drift while the window
		// is authoritative anyway.
		r.sketch.Rebuild()
		set := r.set[:j.n]
		for i := range set {
			set[i] = r.sketch.Sample(i)
		}
		err := r.pf.StartTrain(set, pca.Options{
			Components: r.lp,
			Seed:       rebuildSeed,
			Workers:    r.cfg.Workers,
			Parallel:   r.cfg.Workers > 1,
		})
		if err != nil {
			return j.fitFailed("PCA", err)
		}
		j.stage = stagePCA
	case stagePCA:
		done, err := r.pf.Step()
		if err != nil || done {
			st := r.pf.SolveStats()
			j.res.EigenIterations += st.Iterations
			j.res.EigenConverged = st.Converged
			j.res.FallbackSteps += st.FallbackSteps
		}
		if err != nil {
			return j.fitFailed("PCA", err)
		}
		if !done {
			return false, nil
		}
		j.newPCA = r.pf.Model()
		if err := j.project(); err != nil {
			return j.fitFailed("", err)
		}
		if j.full {
			err = r.gf.StartTrain(r.reduced[:j.n], gmm.Options{
				Components: len(r.gmmM.Components),
				Restarts:   2,
				Seed:       rebuildSeed,
				Workers:    r.cfg.Workers,
			})
		} else {
			err = r.gf.StartRefit(r.reduced[:j.n], r.gmmM)
		}
		if err != nil {
			return j.fitFailed("GMM", err)
		}
		j.stage = stageGMM
	case stageGMM:
		done, err := r.gf.Step()
		if err != nil || done {
			j.res.EMIterations += r.gf.Iterations()
		}
		if err != nil {
			return j.fitFailed("GMM", err)
		}
		if !done {
			return false, nil
		}
		j.newGMM = r.gf.Model()
		j.stage = stagePublish
	case stagePublish:
		if err := j.publish(); err != nil {
			return j.fail(err)
		}
		j.stage = stageDone
		return true, nil
	}
	return false, nil
}

// fitFailed handles a failed fit. On the warm path the job moves onto
// the full path, which reseeds both models from scratch (a warm fit can
// lose a component on a shifted window); on the full path the job
// fails, with the error named after the fit when what is set.
func (j *job) fitFailed(what string, err error) (bool, error) {
	if !j.full {
		j.begin(true)
		return false, nil
	}
	if what != "" {
		err = fmt.Errorf("refresh: full %s: %w", what, err)
	}
	return j.fail(err)
}

// fail ends the job with err.
func (j *job) fail(err error) (bool, error) {
	j.stage = stageDone
	return true, err
}

// project projects every window sample onto the new basis. The sketch
// lists each sample's occupied cells, so the projection pays for those
// alone.
func (j *job) project() error {
	r := j.r
	for i, dst := range r.reduced[:j.n] {
		if err := j.newPCA.ProjectCellsInto(dst, r.sketch.Sample(i), r.sketch.Cells(i)); err != nil {
			return fmt.Errorf("refresh: project window sample %d: %w", i, err)
		}
	}
	return nil
}

// publish builds the candidate detector, recalibrates θ_p on the
// holdout window when it is non-empty, and makes the refreshed models
// the next warm-start state.
func (j *job) publish() error {
	r := j.r
	det, err := core.NewDetector(r.region, j.newPCA, j.newGMM, r.thresholds)
	if err != nil {
		return fmt.Errorf("refresh: %w", err)
	}
	if r.holdN > 0 && len(det.Thresholds) > 0 {
		if det, err = r.recalibrate(det); err != nil {
			return err
		}
		j.res.Recalibrated = true
	}
	r.pcaM, r.gmmM, r.thresholds = j.newPCA, j.newGMM, det.Thresholds
	r.cusum.Reset()
	r.drift = false
	r.refreshes++
	if j.full {
		r.fullRebuilds++
	}
	j.res.FullRebuild = j.full
	j.res.Detector = det
	return nil
}

// recalibrate scores the held-out ring under the candidate detector,
// re-derives each of its thresholds' θ_p from those densities, and
// re-baselines the drift channel on them. It returns the candidate with
// the new thresholds; the candidate's scoring engine is the one the
// published detector serves with.
func (r *Refresher) recalibrate(cand *core.Detector) (*core.Detector, error) {
	dens := r.dens[:r.holdN]
	if err := cand.LogDensityBatch(dens, r.hold[:r.holdN]); err != nil {
		return nil, fmt.Errorf("refresh: holdout: %w", err)
	}
	ths := make([]core.Threshold, len(cand.Thresholds))
	for i, th := range cand.Thresholds {
		theta, err := stats.Quantile(dens, th.P)
		if err != nil {
			return nil, fmt.Errorf("refresh: θ_%g: %w", th.P, err)
		}
		ths[i] = core.Threshold{P: th.P, Theta: theta}
	}
	det, err := cand.WithThresholds(ths)
	if err != nil {
		return nil, fmt.Errorf("refresh: %w", err)
	}
	// A degenerate window (all-identical densities hit the Std floor
	// inside FitChannel) still yields a channel.
	if ch, err := ensemble.FitChannel(dens); err == nil {
		r.channel = ch
		r.chanOK = true
	} else {
		r.chanOK = false
	}
	return det, nil
}
