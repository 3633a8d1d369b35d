// Package pipeline assembles the secure core's online loop: every
// completed memory heat map is classified against a trained detector,
// the verdict is debounced into alarms, and the analysis cost is
// checked against the real-time budget — the paper's deployment model,
// where the analysis of interval i must finish while interval i+1 is
// being recorded (§3.1's double buffering, §5.4's timing argument).
package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/memheatmap/mhm/internal/alarm"
	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/obs"
)

// ErrConfig wraps invalid pipeline configuration.
var ErrConfig = errors.New("pipeline: invalid configuration")

// Config tunes the online pipeline.
type Config struct {
	// Quantile selects the calibrated threshold to act on (default 0.01
	// = the paper's θ1).
	Quantile float64
	// Alarm configures debouncing (zero value = alarm defaults).
	Alarm alarm.Config
	// UseResidual additionally applies the residual test when the
	// detector was calibrated with residual quantiles.
	UseResidual bool
	// Metrics, when non-nil, instruments the pipeline and its alarm
	// runtime with live counters and a per-interval analysis-latency
	// histogram (catalogue: DESIGN.md §6). The detector is NOT
	// instrumented here — call Detector.Instrument separately, since
	// detectors may be shared across pipelines.
	Metrics *obs.Registry
}

// IntervalRecord is one analyzed interval.
type IntervalRecord struct {
	Index      int
	Start, End int64
	LogDensity float64
	Residual   float64 // 0 unless UseResidual
	Anomalous  bool
	// AnalysisMicros is the measured wall-clock analysis cost.
	AnalysisMicros float64
	// Event is the alarm transition this interval triggered, if any.
	Event *alarm.Event
}

// Pipeline is the online analyzer; plug Process into
// securecore.SessionConfig.OnMHM. A mutex serializes Process against
// the read-side accessors (Records, Budget, Alarms, Analyze),
// so a metrics or status exporter may poll a running pipeline from
// another goroutine.
type Pipeline struct {
	det *core.Detector
	cfg Config
	rt  *alarm.Runtime

	mu      sync.Mutex
	records []IntervalRecord
	index   int

	// Observability (nil without Config.Metrics).
	intervals *obs.Counter
	anomalous *obs.Counter
	overruns  *obs.Counter
	analysis  *obs.Histogram
}

// New builds a pipeline over a trained detector.
func New(det *core.Detector, cfg Config) (*Pipeline, error) {
	if det == nil {
		return nil, fmt.Errorf("pipeline: nil detector: %w", ErrConfig)
	}
	if cfg.Quantile == 0 {
		cfg.Quantile = 0.01
	}
	if _, err := det.Threshold(cfg.Quantile); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	if cfg.UseResidual {
		if _, err := det.ResidualThreshold(cfg.Quantile); err != nil {
			return nil, fmt.Errorf("pipeline: residual requested: %w", err)
		}
	}
	rt, err := alarm.NewRuntime(cfg.Alarm)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{det: det, cfg: cfg, rt: rt}
	if cfg.Metrics != nil {
		p.intervals = cfg.Metrics.Counter("pipeline.intervals")
		p.anomalous = cfg.Metrics.Counter("pipeline.anomalous")
		p.overruns = cfg.Metrics.Counter("pipeline.overruns")
		p.analysis = cfg.Metrics.Histogram("pipeline.analysis_micros", obs.LatencyBuckets)
		rt.Instrument(cfg.Metrics)
	}
	return p, nil
}

// Process analyzes one completed MHM; it is the securecore OnMHM hook.
// Safe for concurrent use with the pipeline's read-side accessors.
func (p *Pipeline) Process(m *heatmap.HeatMap) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	start := time.Now()
	var (
		anomalous bool
		lp, res   float64
		err       error
	)
	if p.cfg.UseResidual {
		anomalous, lp, res, err = p.det.ClassifyWithResidual(m, p.cfg.Quantile)
	} else {
		anomalous, lp, err = p.det.Classify(m, p.cfg.Quantile)
	}
	if err != nil {
		return fmt.Errorf("pipeline: interval %d: %w", p.index, err)
	}
	rec := IntervalRecord{
		Index:          p.index,
		Start:          m.Start,
		End:            m.End,
		LogDensity:     lp,
		Residual:       res,
		Anomalous:      anomalous,
		AnalysisMicros: float64(time.Since(start).Nanoseconds()) / 1e3,
	}
	rec.Event = p.rt.Observe(anomalous, m.End)
	p.records = append(p.records, rec)
	p.index++

	p.intervals.Inc()
	if anomalous {
		p.anomalous.Inc()
	}
	p.analysis.Observe(rec.AnalysisMicros)
	// Live deadline accounting against this interval's own length — the
	// §5.4 feasibility condition, visible while the loop runs rather
	// than only in the post-hoc Budget report.
	if budget := m.End - m.Start; budget > 0 && int64(rec.AnalysisMicros) >= budget {
		p.overruns.Inc()
	}
	return nil
}

// Records returns every analyzed interval so far.
func (p *Pipeline) Records() []IntervalRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]IntervalRecord, len(p.records))
	copy(out, p.records)
	return out
}

// Alarms returns the alarm transitions so far.
func (p *Pipeline) Alarms() []alarm.Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rt.Events()
}

// BudgetReport summarizes whether the analysis fits the monitoring
// interval — the paper's §5.4 feasibility argument.
type BudgetReport struct {
	Intervals int
	// MeanMicros and MaxMicros are analysis-cost statistics.
	MeanMicros, MaxMicros float64
	// IntervalMicros is the budget (0 if no intervals were seen).
	IntervalMicros int64
	// Overruns counts intervals whose analysis exceeded the budget; with
	// double buffering one overrun drops one MHM.
	Overruns int
}

// Budget computes the report against the MHM interval length.
func (p *Pipeline) Budget() BudgetReport {
	p.mu.Lock()
	defer p.mu.Unlock()
	rep := BudgetReport{Intervals: len(p.records)}
	if len(p.records) == 0 {
		return rep
	}
	rep.IntervalMicros = p.records[0].End - p.records[0].Start
	sum := 0.0
	for _, r := range p.records {
		sum += r.AnalysisMicros
		if r.AnalysisMicros > rep.MaxMicros {
			rep.MaxMicros = r.AnalysisMicros
		}
		if int64(r.AnalysisMicros) >= rep.IntervalMicros {
			rep.Overruns++
		}
	}
	rep.MeanMicros = sum / float64(len(p.records))
	return rep
}

// Analyze summarizes detection against a ground-truth event interval
// (negative for a clean run), delegating to the alarm runtime.
func (p *Pipeline) Analyze(eventInterval int) alarm.Report {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rt.Analyze(eventInterval)
}
