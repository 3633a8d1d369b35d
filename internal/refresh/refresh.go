// Package refresh is the online model-maintenance engine (DESIGN.md
// §14): it keeps a live detector current against workload drift at a
// small fraction of a full retrain. The fast path chains the
// incremental machinery the training stack grew for it — the
// sliding-window covariance sketch (train.Centered, O(batch·L) updates,
// zero allocations), warm-started subspace iteration from the previous
// eigenmemory basis (pca.Refresh), and warm-start mini-batch EM seeded
// from the live mixture (gmm.Refit, a small bounded number of blocked
// iterations) — then recalibrates the θ_p thresholds on a sliding
// held-out window of recent normal intervals. A one-sided CUSUM over
// the standardized holdout densities (ensemble.CusumState) raises a
// drift alarm when the normal-density distribution shifts; the next
// Refresh then takes the slow path, a full from-scratch retrain over
// the window, and re-baselines the drift channel.
//
// Determinism contract: for a fixed observation history every refreshed
// model is bit-identical for every worker count, including under -race
// — all inputs flow through the training engines' fixed chunk grids and
// the sequential rings here.
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
	"github.com/memheatmap/mhm/internal/score"
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
	// drift channel is fitted). Held-out intervals never enter the
	// training window; θ_p recalibration and the drift channel are
	// fitted on them.
	Holdout int
	// HoldoutEvery routes every Nth observed normal interval to the
	// holdout window instead of the training window (default 4; negative
	// disables the routing).
	HoldoutEvery int
	// EigenIter bounds the warm-started subspace iterations per
	// incremental refresh (default 8).
	EigenIter int
	// EMIter bounds the warm-start EM iterations per incremental
	// refresh (default 4).
	EMIter int
	// EMBatch, when positive, runs each EM iteration over a rotating
	// contiguous mini-batch of that many window samples.
	EMBatch int
	// Quantiles are the θ_p probabilities to recalibrate. Default: the
	// P values of the seed detector's thresholds.
	Quantiles []float64
	// DriftK is the CUSUM allowance in |z| units (default
	// ensemble.DriftK).
	DriftK float64
	// DriftThreshold is the accumulator level that raises the drift
	// alarm (default 16).
	DriftThreshold float64
	// RebuildEvery forces a full rebuild every N refreshes regardless of
	// drift (0 = rebuild only on a drift alarm).
	RebuildEvery int
	// Workers bounds goroutines inside the training engines. Results
	// are bit-identical for every value.
	Workers int
	// Seed seeds the full-rebuild training paths (default 1).
	Seed int64
}

func (c *Config) fill() error {
	if c.Window == 0 {
		c.Window = 192
	}
	if c.Holdout == 0 {
		c.Holdout = 64
	} else if c.Holdout < 0 {
		c.Holdout = 0
	}
	if c.HoldoutEvery == 0 {
		c.HoldoutEvery = 4
	} else if c.HoldoutEvery < 0 {
		c.HoldoutEvery = 0
	}
	if c.EigenIter == 0 {
		c.EigenIter = 8
	}
	if c.EMIter == 0 {
		c.EMIter = 4
	}
	if c.DriftK == 0 {
		c.DriftK = ensemble.DriftK
	}
	if c.DriftThreshold == 0 {
		c.DriftThreshold = 16
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Window < 2 || c.EMBatch < 0 || c.RebuildEvery < 0 {
		return fmt.Errorf("refresh: window=%d holdout=%d holdoutEvery=%d emBatch=%d rebuildEvery=%d: %w",
			c.Window, c.Holdout, c.HoldoutEvery, c.EMBatch, c.RebuildEvery, ErrConfig)
	}
	for _, p := range c.Quantiles {
		if !(p > 0) || p >= 1 {
			return fmt.Errorf("refresh: quantile %g out of (0,1): %w", p, ErrConfig)
		}
	}
	return nil
}

// Result describes one completed refresh.
type Result struct {
	// Detector is the refreshed model with the fused scoring runtime
	// installed and the recalibrated thresholds.
	Detector *core.Detector
	// FullRebuild reports the slow path ran (drift alarm or cadence).
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
	batch1 [][]float64 // length-1 Update wrapper, reused

	hold     []float64 // Holdout×L ring backing
	holdN    int
	holdHead int

	reduced [][]float64 // Window rows of length L', reused per refresh
	redBack []float64
	set     [][]float64 // Window sample views, reused by the rebuild path
	dens    []float64   // holdout density scratch

	probe       *score.Engine // private repacked calibration engine
	probeScorer *score.Scorer

	channel ensemble.Channel
	chanOK  bool
	cusum   ensemble.CusumState
	drift   bool

	seen         int
	sinceRebuild int

	refreshes, fullRebuilds, driftAlarms int
}

// New builds a Refresher seeded from a live detector. The detector's
// models are referenced as the warm-start state; they are not modified.
func New(det *core.Detector, cfg Config) (*Refresher, error) {
	if det == nil || det.PCA == nil || det.GMM == nil {
		return nil, fmt.Errorf("refresh: nil detector or models: %w", ErrConfig)
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	l, lp := det.PCA.Dim()
	if cfg.Window < lp+2 {
		return nil, fmt.Errorf("refresh: window %d below L'+2=%d: %w", cfg.Window, lp+2, ErrConfig)
	}
	if len(cfg.Quantiles) == 0 {
		for _, th := range det.Thresholds {
			cfg.Quantiles = append(cfg.Quantiles, th.P)
		}
	}
	sk, err := train.NewCentered(l, cfg.Window, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("refresh: %w", err)
	}
	r := &Refresher{
		cfg:        cfg,
		region:     det.Region,
		l:          l,
		lp:         lp,
		pcaM:       det.PCA,
		gmmM:       det.GMM,
		thresholds: append([]core.Threshold(nil), det.Thresholds...),
		sketch:     sk,
		batch1:     make([][]float64, 1),
		hold:       make([]float64, cfg.Holdout*l),
		reduced:    make([][]float64, cfg.Window),
		redBack:    make([]float64, cfg.Window*lp),
		set:        make([][]float64, cfg.Window),
		dens:       make([]float64, cfg.Holdout),
	}
	for i := range r.reduced {
		r.reduced[i] = r.redBack[i*lp : (i+1)*lp]
	}
	return r, nil
}

// Observe feeds one normal (non-anomalous-verdict) interval: its raw
// MHM vector and the log density the live model assigned it. Every
// HoldoutEvery-th interval lands in the held-out calibration ring; the
// rest update the training sketch. The density drives the drift CUSUM.
// A vector with a NaN or ±Inf entry is rejected before any state
// changes: in the holdout it would drag θ_p to −Inf, and in the sketch
// it would poison the running sums for good. Zero allocations in
// steady state; v is copied, not retained.
//
//mhm:deterministic
func (r *Refresher) Observe(v []float64, logDensity float64) error {
	if len(v) != r.l {
		return fmt.Errorf("refresh: vector length %d, want %d: %w", len(v), r.l, ErrConfig)
	}
	for i, x := range v {
		if !mat.IsFinite(x) {
			return fmt.Errorf("refresh: vector entry %d is %v: %w", i, x, ErrNonFinite)
		}
	}
	r.seen++
	if r.chanOK {
		z := r.channel.Z(logDensity)
		s := r.cusum.Step(math.Abs(z), r.cfg.DriftK)
		if s >= r.cfg.DriftThreshold && !r.drift {
			r.drift = true
			r.driftAlarms++
		}
	}
	if r.cfg.Holdout > 0 && r.cfg.HoldoutEvery > 0 && r.seen%r.cfg.HoldoutEvery == 0 {
		copy(r.hold[r.holdHead*r.l:(r.holdHead+1)*r.l], v)
		r.holdHead = (r.holdHead + 1) % r.cfg.Holdout
		if r.holdN < r.cfg.Holdout {
			r.holdN++
		}
		return nil
	}
	r.batch1[0] = v
	err := r.sketch.Update(r.batch1)
	r.batch1[0] = nil
	return err
}

// Ready reports whether the training window holds enough samples to
// refresh the model.
func (r *Refresher) Ready() bool { return r.sketch.Len() >= r.lp+2 }

// Counters returns (refreshes, full rebuilds, drift alarms) so far.
func (r *Refresher) Counters() (int, int, int) {
	return r.refreshes, r.fullRebuilds, r.driftAlarms
}

// Refresh derives a new detector from the current windows. The fast
// path warm-starts both models from the live ones; a drift alarm or the
// RebuildEvery cadence forces the full from-scratch path (which also
// re-derives the sketch sums exactly). θ_p is recalibrated on the
// holdout window when it is non-empty, with the quantile set pinned at
// construction; an empty holdout carries the previous thresholds over.
// The refreshed models become the next warm-start state.
//
//mhm:deterministic
func (r *Refresher) Refresh() (*Result, error) {
	n := r.sketch.Len()
	if n < r.lp+2 {
		return nil, fmt.Errorf("refresh: %d window samples for L'=%d: %w", n, r.lp, ErrNotReady)
	}
	res := &Result{
		DriftStat:  r.cusum.S,
		WindowLen:  n,
		HoldoutLen: r.holdN,
	}
	full := r.drift || (r.cfg.RebuildEvery > 0 && r.sinceRebuild >= r.cfg.RebuildEvery)

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

	thresholds := r.thresholds
	if r.holdN > 0 && len(r.cfg.Quantiles) > 0 {
		if err := r.scoreHoldout(newPCA, newGMM); err != nil {
			return nil, err
		}
		dens := r.dens[:r.holdN]
		thresholds = make([]core.Threshold, 0, len(r.cfg.Quantiles))
		for _, p := range r.cfg.Quantiles {
			theta, err := stats.Quantile(dens, p)
			if err != nil {
				return nil, fmt.Errorf("refresh: θ_%g: %w", p, err)
			}
			thresholds = append(thresholds, core.Threshold{P: p, Theta: theta})
		}
		res.Recalibrated = true
		// Re-baseline the drift channel on the holdout densities under
		// the new model; a degenerate window (all-identical densities
		// hit the Std floor inside FitChannel) still yields a channel.
		if ch, err := ensemble.FitChannel(dens); err == nil {
			r.channel = ch
			r.chanOK = true
		} else {
			r.chanOK = false
		}
	}

	det, err := core.NewDetector(r.region, newPCA, newGMM, thresholds)
	if err != nil {
		return nil, fmt.Errorf("refresh: %w", err)
	}

	r.pcaM, r.gmmM, r.thresholds = newPCA, newGMM, det.Thresholds
	r.cusum.Reset()
	r.drift = false
	r.refreshes++
	if full {
		r.fullRebuilds++
		r.sinceRebuild = 0
	} else {
		r.sinceRebuild++
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
			Seed:       r.cfg.Seed,
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
		newPCA, err = pca.Refresh(r.pcaM, r.sketch, pca.RefreshOptions{
			MaxIter:  r.cfg.EigenIter,
			Seed:     r.cfg.Seed,
			Parallel: r.cfg.Workers > 1,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("refresh: incremental PCA: %w", err)
		}
	}

	reduced := r.reduced[:n]
	for i := 0; i < n; i++ {
		if err := newPCA.ProjectInto(reduced[i], r.sketch.Sample(i)); err != nil {
			return nil, nil, fmt.Errorf("refresh: project window sample %d: %w", i, err)
		}
	}

	var newGMM *gmm.Model
	if full {
		newGMM, err = gmm.Train(reduced, gmm.Options{
			Components: len(r.gmmM.Components),
			Restarts:   2,
			Seed:       r.cfg.Seed,
			Workers:    r.cfg.Workers,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("refresh: full GMM: %w", err)
		}
	} else {
		newGMM, err = gmm.Refit(reduced, r.gmmM, gmm.RefitOptions{
			MaxIter:   r.cfg.EMIter,
			BatchSize: r.cfg.EMBatch,
			Workers:   r.cfg.Workers,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("refresh: warm GMM: %w", err)
		}
	}
	return newPCA, newGMM, nil
}

// scoreHoldout scores the held-out ring under the candidate models into
// r.dens, through the private repacked probe engine — the only engine
// this package mutates in place, per score.Repack's exclusive-ownership
// contract (published engines are always freshly built by NewDetector).
func (r *Refresher) scoreHoldout(p *pca.Model, g *gmm.Model) error {
	probe, err := score.Repack(r.probe, p, g)
	if err != nil {
		return fmt.Errorf("refresh: probe engine: %w", err)
	}
	if probe != r.probe || r.probeScorer == nil {
		r.probe = probe
		r.probeScorer = probe.NewScorer()
	}
	for i := 0; i < r.holdN; i++ {
		d, err := r.probeScorer.Score(r.hold[i*r.l : (i+1)*r.l])
		if err != nil {
			return fmt.Errorf("refresh: holdout %d: %w", i, err)
		}
		r.dens[i] = d
	}
	return nil
}
