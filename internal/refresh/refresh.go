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

// Result describes one completed refresh.
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
//
//mhm:deterministic
func (r *Refresher) Refresh() (*Result, error) { return r.refresh(r.drift) }

// refresh runs Refresh on the full path when full is set, and otherwise
// on the warm path, falling back to the full one when the warm fit
// fails.
func (r *Refresher) refresh(full bool) (*Result, error) {
	n := r.sketch.Len()
	if n < r.lp+2 {
		return nil, fmt.Errorf("refresh: %d window samples for L'=%d: %w", n, r.lp, ErrNotReady)
	}
	res := &Result{
		DriftStat:  r.cusum.S,
		WindowLen:  n,
		HoldoutLen: r.holdN,
	}
	newPCA, newGMM, err := r.fitModels(n, full)
	if err != nil && !full {
		// The warm path can lose a component (covariance collapse on a
		// shifted window); the full path reseeds from scratch.
		full = true
		newPCA, newGMM, err = r.fitModels(n, full)
	}
	if err != nil {
		return nil, err
	}
	res.FullRebuild = full

	det, err := core.NewDetector(r.region, newPCA, newGMM, r.thresholds)
	if err != nil {
		return nil, fmt.Errorf("refresh: %w", err)
	}
	if r.holdN > 0 && len(det.Thresholds) > 0 {
		if det, err = r.recalibrate(det); err != nil {
			return nil, err
		}
		res.Recalibrated = true
	}

	r.pcaM, r.gmmM, r.thresholds = newPCA, newGMM, det.Thresholds
	r.cusum.Reset()
	r.drift = false
	r.refreshes++
	if full {
		r.fullRebuilds++
	}
	res.Detector = det
	return res, nil
}

// fitModels runs either the warm incremental path or the full
// from-scratch path over the current window.
func (r *Refresher) fitModels(n int, full bool) (*pca.Model, *gmm.Model, error) {
	var newPCA *pca.Model
	var err error
	if full {
		set := r.set[:n]
		for i := 0; i < n; i++ {
			set[i] = r.sketch.Sample(i)
		}
		newPCA, err = pca.Train(set, pca.Options{
			Components: r.lp,
			Seed:       rebuildSeed,
			Workers:    r.cfg.Workers,
			Parallel:   r.cfg.Workers > 1,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("refresh: full PCA: %w", err)
		}
		// Discard the incremental sums' rounding drift while the window
		// is authoritative anyway.
		r.sketch.Rebuild()
	} else {
		newPCA, err = pca.Refresh(r.pcaM, r.sketch, pca.RefreshOptions{Parallel: r.cfg.Workers > 1})
		if err != nil {
			return nil, nil, fmt.Errorf("refresh: incremental PCA: %w", err)
		}
	}

	// The sketch lists each sample's occupied cells, so the window
	// projection pays for those alone.
	reduced := r.reduced[:n]
	for i := 0; i < n; i++ {
		if err := newPCA.ProjectCellsInto(reduced[i], r.sketch.Sample(i), r.sketch.Cells(i)); err != nil {
			return nil, nil, fmt.Errorf("refresh: project window sample %d: %w", i, err)
		}
	}

	var newGMM *gmm.Model
	if full {
		newGMM, err = gmm.Train(reduced, gmm.Options{
			Components: len(r.gmmM.Components),
			Restarts:   2,
			Seed:       rebuildSeed,
			Workers:    r.cfg.Workers,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("refresh: full GMM: %w", err)
		}
	} else {
		newGMM, err = gmm.Refit(reduced, r.gmmM)
		if err != nil {
			return nil, nil, fmt.Errorf("refresh: warm GMM: %w", err)
		}
	}
	return newPCA, newGMM, nil
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
