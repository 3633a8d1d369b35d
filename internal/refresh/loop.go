// The fleet-facing refresh loop: a fleet.ModelMaintainer that feeds the
// Refresher from the simulator's sequential verdict pass, runs each
// refresh as a job of bounded steps, one per scored interval, and
// publishes each refreshed model through the registry at an exact
// upcoming interval boundary. All decisions — which intervals feed the
// window, when a refresh triggers, which step completes it, which
// boundary the swap lands on — happen in admission order on the
// sequential pass and count steps, never time, so a fleet run with the
// loop installed is bit-identical at any worker count and on any
// machine.
package refresh

import (
	"fmt"

	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/fleet"
)

// LoopConfig tunes a Loop.
type LoopConfig struct {
	// Every triggers a refresh after that many clean (non-anomalous)
	// observed intervals (default 256).
	Every int
	// Quantile selects the published models' decision threshold
	// (default 0.01). The base detector must carry it, so every
	// recalibration re-derives it.
	Quantile float64
	// Refresher configures the underlying model maintenance.
	Refresher Config
}

// swapLead places each published swap swapLead intervals past the
// highest per-stream index observed up to the step that completed the
// refresh, so the boundary is still ahead of every stream and the
// cutover is exact.
const swapLead = 2

// LoopStats is a point-in-time snapshot of loop activity.
type LoopStats struct {
	Observed, Skipped  int64 // scored intervals seen / anomalous ones excluded
	Refreshes          int
	FullRebuilds       int
	DriftAlarms        int
	SwapsScheduled     int
	Version            int // latest published model version
	LastDriftStat      float64
	LastRecalibrated   bool
	LastWindow, LastHO int
	// Steps counts the refresh steps run so far, one per Observe call
	// while a job runs, and FallbackSteps those of ended jobs that
	// applied the covariance at full dimension after a run on its
	// support stopped (Result.FallbackSteps).
	Steps, FallbackSteps int
	// The last published refresh's steps, subspace iterations, whether
	// its eigen-solve stopped at the tolerance rather than the cap, and
	// EM iterations (see Result).
	LastSteps           int
	LastEigenIterations int
	LastEigenConverged  bool
	LastEMIterations    int
}

// Loop implements fleet.ModelMaintainer: it routes every clean scored
// interval into the Refresher and hot-swaps the whole fleet onto each
// refreshed model via SwapAllAtCoalesce. Anomalous-verdict intervals
// never enter the training or calibration windows, so an attack cannot
// poison the refreshed model with its own behaviour.
//
// A refresh runs as a job (DESIGN.md §14.4): each Observe call while it
// runs advances it by one bounded step, so no verdict waits for a whole
// refresh. The job fits the windows as they stood when it started, so
// the clean intervals that arrive while it runs are copied and deferred
// — the fleet's vector is valid only during the call — and replayed
// into the Refresher in arrival order on the step that completes the
// job. Each published model is therefore bit-identical to a one-shot
// Refresh at its job's start, which is the trigger whenever a job takes
// fewer steps than Every clean intervals. A trigger that comes due while
// a job runs waits for it: the replay feeds every deferred interval,
// and the next job starts on the windows as they then stand, so the
// queue never holds more than one job's intervals. Not safe for
// concurrent use (the verdict pass is sequential by contract).
type Loop struct {
	cfg LoopConfig
	r   *Refresher
	reg *fleet.Registry

	version      int
	maxIdx       int
	sinceTrigger int
	lastErr      error
	stats        LoopStats

	job      *job
	deferred []deferredObs // the first pending of them wait for the replay, in arrival order
	pending  int
}

// deferredObs is a clean interval that arrived while a job ran: a copy
// of its vector, whose storage the queue reuses, and its density.
type deferredObs struct {
	vec     []float64
	density float64
}

var _ fleet.ModelMaintainer = (*Loop)(nil)

// NewLoop builds a refresh loop seeded from the fleet's base detector.
// The detector must expose a threshold at cfg.Quantile: the published
// models need it, and the Refresher recalibrates at the detector's P
// values.
func NewLoop(det *core.Detector, reg *fleet.Registry, cfg LoopConfig) (*Loop, error) {
	if reg == nil {
		return nil, fmt.Errorf("refresh: nil registry: %w", ErrConfig)
	}
	if cfg.Every == 0 {
		cfg.Every = 256
	}
	if cfg.Quantile == 0 {
		cfg.Quantile = 0.01
	}
	if cfg.Every < 1 || !(cfg.Quantile > 0) || cfg.Quantile >= 1 {
		return nil, fmt.Errorf("refresh: every=%d quantile=%g: %w", cfg.Every, cfg.Quantile, ErrConfig)
	}
	if det == nil {
		return nil, fmt.Errorf("refresh: nil detector: %w", ErrConfig)
	}
	if _, err := det.Threshold(cfg.Quantile); err != nil {
		return nil, fmt.Errorf("refresh: base detector lacks θ at p=%g: %w", cfg.Quantile, err)
	}
	r, err := New(det, cfg.Refresher)
	if err != nil {
		return nil, err
	}
	return &Loop{cfg: cfg, r: r, reg: reg, version: 1}, nil
}

// Observe implements fleet.ModelMaintainer. While a refresh job runs,
// a clean interval is deferred and the job advances one step; the step
// that completes it publishes the model with a fleet-wide coalescing
// swap at boundary maxIdx+swapLead and replays the deferred intervals.
// Otherwise a clean interval feeds the Refresher at once. Once cfg.Every
// clean intervals have gone in since the last job started, the next job
// starts, and its first step runs at the next call. Errors are retained
// (see Err) rather than surfaced — a failed refresh leaves the fleet on
// its current model, which is the correct degraded mode. The deferral
// allocates nothing in steady state.
//
//mhm:deterministic
func (l *Loop) Observe(stream, scoredIdx int, anomalous bool, density float64, vec []float64) {
	l.stats.Observed++
	if scoredIdx > l.maxIdx {
		l.maxIdx = scoredIdx
	}
	if anomalous {
		l.stats.Skipped++
	}
	if l.job == nil {
		if !anomalous {
			l.observe(vec, density)
			l.trigger()
		}
		return
	}
	if !anomalous {
		l.deferObs(vec, density)
	}
	l.stats.Steps++
	done, err := l.job.step()
	if !done {
		return
	}
	res := &l.job.res
	l.job = nil
	l.stats.FallbackSteps += res.FallbackSteps
	if err != nil {
		l.lastErr = err
	} else {
		l.publish(res)
	}
	l.replay()
	l.trigger()
}

// replay feeds the deferred intervals to the Refresher in arrival order
// and empties the queue, keeping its storage.
func (l *Loop) replay() {
	for _, d := range l.deferred[:l.pending] {
		l.observe(d.vec, d.density)
	}
	l.pending = 0
}

// observe feeds one clean interval to the Refresher.
func (l *Loop) observe(vec []float64, density float64) {
	if err := l.r.Observe(vec, density); err != nil {
		l.lastErr = err
		return
	}
	l.sinceTrigger++
}

// trigger starts a refresh job once cfg.Every clean intervals have gone
// into the Refresher since the last one started and its window is
// ready.
func (l *Loop) trigger() {
	if l.sinceTrigger < l.cfg.Every || !l.r.Ready() {
		return
	}
	l.sinceTrigger = 0
	j, err := l.r.start(l.r.drift)
	if err != nil {
		l.lastErr = err
		return
	}
	l.job = j
}

// deferObs queues a copy of a clean interval that arrived while a job
// runs, in storage the queue keeps.
func (l *Loop) deferObs(vec []float64, density float64) {
	if l.pending == len(l.deferred) {
		l.deferred = append(l.deferred, deferredObs{})
	}
	d := &l.deferred[l.pending]
	d.vec = append(d.vec[:0], vec...)
	d.density = density
	l.pending++
}

// publish wraps a completed refresh as the next model version and
// schedules the fleet-wide swap onto it swapLead intervals past the
// highest index seen so far.
func (l *Loop) publish(res *Result) {
	l.version++
	m, err := fleet.NewModel(res.Detector, l.cfg.Quantile, l.version)
	if err != nil {
		l.lastErr = err
		l.version--
		return
	}
	if err := l.reg.SwapAllAtCoalesce(l.maxIdx+swapLead, m); err != nil {
		l.lastErr = err
		return
	}
	l.stats.SwapsScheduled++
	l.stats.LastDriftStat = res.DriftStat
	l.stats.LastRecalibrated = res.Recalibrated
	l.stats.LastWindow, l.stats.LastHO = res.WindowLen, res.HoldoutLen
	l.stats.LastSteps = res.Steps
	l.stats.LastEigenIterations = res.EigenIterations
	l.stats.LastEigenConverged = res.EigenConverged
	l.stats.LastEMIterations = res.EMIterations
}

// Stats snapshots the loop counters (refresh counters pulled from the
// underlying Refresher).
func (l *Loop) Stats() LoopStats {
	s := l.stats
	s.Refreshes, s.FullRebuilds, s.DriftAlarms = l.r.Counters()
	s.Version = l.version
	return s
}

// Err returns the most recent retained error, if any.
func (l *Loop) Err() error { return l.lastErr }
