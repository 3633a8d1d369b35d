// The fleet-facing refresh loop: a fleet.ModelMaintainer that feeds the
// Refresher from the simulator's sequential verdict pass and publishes
// each refreshed model through the registry at an exact upcoming
// interval boundary. All decisions — which intervals feed the window,
// when a refresh triggers, which boundary the swap lands on — happen in
// admission order on the sequential pass, so a fleet run with the loop
// installed is bit-identical at any worker count.
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
	// Lead places each published swap Lead intervals past the highest
	// per-stream index observed so far (default 2), so the boundary is
	// still ahead of every stream and the cutover is exact.
	Lead int
	// Quantile selects the published models' decision threshold
	// (default 0.01). It is forced into the Refresher's recalibration
	// quantile set.
	Quantile float64
	// Refresher configures the underlying model maintenance.
	Refresher Config
}

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
}

// Loop implements fleet.ModelMaintainer: it routes every clean scored
// interval into the Refresher and hot-swaps the whole fleet onto each
// refreshed model via SwapAllAtCoalesce. Anomalous-verdict intervals
// never enter the training or calibration windows, so an attack cannot
// poison the refreshed model with its own behaviour. Not safe for
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
}

var _ fleet.ModelMaintainer = (*Loop)(nil)

// NewLoop builds a refresh loop seeded from the fleet's base detector.
// The detector must expose a threshold at cfg.Quantile (the published
// models need it), and the Refresher's recalibration set is extended to
// include it.
func NewLoop(det *core.Detector, reg *fleet.Registry, cfg LoopConfig) (*Loop, error) {
	if reg == nil {
		return nil, fmt.Errorf("refresh: nil registry: %w", ErrConfig)
	}
	if cfg.Every == 0 {
		cfg.Every = 256
	}
	if cfg.Lead == 0 {
		cfg.Lead = 2
	}
	if cfg.Quantile == 0 {
		cfg.Quantile = 0.01
	}
	if cfg.Every < 1 || cfg.Lead < 1 || !(cfg.Quantile > 0) || cfg.Quantile >= 1 {
		return nil, fmt.Errorf("refresh: every=%d lead=%d quantile=%g: %w",
			cfg.Every, cfg.Lead, cfg.Quantile, ErrConfig)
	}
	if det == nil {
		return nil, fmt.Errorf("refresh: nil detector: %w", ErrConfig)
	}
	if _, err := det.Threshold(cfg.Quantile); err != nil {
		return nil, fmt.Errorf("refresh: base detector lacks θ at p=%g: %w", cfg.Quantile, err)
	}
	has := false
	for _, p := range cfg.Refresher.Quantiles {
		if p == cfg.Quantile {
			has = true
			break
		}
	}
	if !has && len(cfg.Refresher.Quantiles) > 0 {
		cfg.Refresher.Quantiles = append(cfg.Refresher.Quantiles, cfg.Quantile)
	}
	r, err := New(det, cfg.Refresher)
	if err != nil {
		return nil, err
	}
	return &Loop{cfg: cfg, r: r, reg: reg, version: 1}, nil
}

// Observe implements fleet.ModelMaintainer. Clean intervals feed the
// Refresher; every cfg.Every-th clean interval triggers a refresh and a
// fleet-wide coalescing swap at boundary maxIdx+Lead. Errors are
// retained (see Err) rather than surfaced — a failed refresh leaves the
// fleet on its current model, which is the correct degraded mode.
//
//mhm:deterministic
func (l *Loop) Observe(stream, scoredIdx int, anomalous bool, density float64, vec []float64) {
	l.stats.Observed++
	if scoredIdx > l.maxIdx {
		l.maxIdx = scoredIdx
	}
	if anomalous {
		l.stats.Skipped++
		return
	}
	if err := l.r.Observe(vec, density); err != nil {
		l.lastErr = err
		return
	}
	l.sinceTrigger++
	if l.sinceTrigger < l.cfg.Every || !l.r.Ready() {
		return
	}
	l.sinceTrigger = 0
	res, err := l.r.Refresh()
	if err != nil {
		l.lastErr = err
		return
	}
	l.version++
	m, err := fleet.NewModel(res.Detector, l.cfg.Quantile, l.version)
	if err != nil {
		l.lastErr = err
		l.version--
		return
	}
	if err := l.reg.SwapAllAtCoalesce(l.maxIdx+l.cfg.Lead, m); err != nil {
		l.lastErr = err
		return
	}
	l.stats.SwapsScheduled++
	l.stats.LastDriftStat = res.DriftStat
	l.stats.LastRecalibrated = res.Recalibrated
	l.stats.LastWindow, l.stats.LastHO = res.WindowLen, res.HoldoutLen
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
