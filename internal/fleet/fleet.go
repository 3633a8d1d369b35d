// Package fleet is the fleet-scale detection control plane: it serves
// the paper's per-device memory-heat-map detection for up to 100k+
// independent device streams. The live Controller pins each stream to
// one shard worker, so a stream's intervals are scored and recorded in
// submission order, bit-identical to the serial pipeline.Pipeline; it
// never blocks a submitter, shedding per-stream-fairly under overload
// instead (admission.go). Each interval is scored under the model the
// per-stream registry resolves for it (registry.go, copy-on-write hot
// swap at exact interval boundaries). The deterministic simulator
// (sim.go) drives the same decisions — admission, routing over a
// resizable shard set (router.go), hot swaps and obs-driven
// autoscaling (autoscale.go) — in virtual time, so every one of them is
// bit-reproducible and assertable.
package fleet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/memheatmap/mhm/internal/alarm"
	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/obs"
	"github.com/memheatmap/mhm/internal/score"
)

// ErrConfig wraps invalid fleet configuration or inputs.
var ErrConfig = errors.New("fleet: invalid configuration")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("fleet: controller closed")

// Config tunes the live controller.
type Config struct {
	// Shards is the initial worker count (default GOMAXPROCS, capped at
	// the stream count).
	Shards int
	// QueueDepth is the per-shard queue capacity (default 128). Negative
	// values are rejected: a fleet must state its capacity, not
	// silently inherit one.
	QueueDepth int
	// MaxPerStream caps one stream's in-flight intervals (default 4) —
	// the per-stream fairness share under load.
	MaxPerStream int
	// HighWaterFrac is the queue occupancy fraction above which only
	// streams with nothing in flight are admitted (default 0.75).
	HighWaterFrac float64
	// Quantile selects the calibrated threshold (default 0.01 = θ1).
	Quantile float64
	// Alarm configures per-stream debouncing (zero value = defaults).
	Alarm alarm.Config
	// Metrics, when non-nil, installs the fleet metric set (see
	// fleetMetrics; names are frozen by a golden schema test).
	Metrics *obs.Registry
}

func (c *Config) fill(streams int) error {
	if c.Shards == 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Shards < 0 {
		return fmt.Errorf("fleet: %d shards: %w", c.Shards, ErrConfig)
	}
	if c.Shards > streams {
		c.Shards = streams
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 128
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("fleet: queue depth %d: %w", c.QueueDepth, ErrConfig)
	}
	if c.MaxPerStream == 0 {
		c.MaxPerStream = 4
	}
	if c.MaxPerStream < 0 {
		return fmt.Errorf("fleet: per-stream cap %d: %w", c.MaxPerStream, ErrConfig)
	}
	if c.HighWaterFrac == 0 {
		c.HighWaterFrac = 0.75
	}
	if c.HighWaterFrac < 0 || c.HighWaterFrac > 1 {
		return fmt.Errorf("fleet: high-water fraction %g: %w", c.HighWaterFrac, ErrConfig)
	}
	if c.Quantile == 0 {
		c.Quantile = 0.01
	}
	return nil
}

// fleetMetrics is the controller's frozen metric set; the golden schema
// test pins these names so dashboards cannot break silently. All
// metrics are fleet-aggregate — per-shard names would churn under
// autoscaling.
type fleetMetrics struct {
	submitted *obs.Counter // fleet.submitted
	admitted  *obs.Counter // fleet.admitted
	shed      *obs.Counter // fleet.shed
	anomalous *obs.Counter // fleet.anomalous
	swaps     *obs.Counter // fleet.swaps
	resizes   *obs.Counter // fleet.resizes
	raised    *obs.Counter // fleet.alarms_raised
	cleared   *obs.Counter // fleet.alarms_cleared

	shards    *obs.Gauge // fleet.shards
	streams   *obs.Gauge // fleet.streams
	inflight  *obs.Gauge // fleet.inflight
	queueFrac *obs.Gauge // fleet.queue_frac_max
	p99       *obs.Gauge // fleet.p99_interval_micros

	interval *obs.Histogram // fleet.interval_micros
	delivery *obs.Histogram // fleet.alarm_delivery_micros
}

func newFleetMetrics(reg *obs.Registry) fleetMetrics {
	return fleetMetrics{
		submitted: reg.Counter("fleet.submitted"),
		admitted:  reg.Counter("fleet.admitted"),
		shed:      reg.Counter("fleet.shed"),
		anomalous: reg.Counter("fleet.anomalous"),
		swaps:     reg.Counter("fleet.swaps"),
		resizes:   reg.Counter("fleet.resizes"),
		raised:    reg.Counter("fleet.alarms_raised"),
		cleared:   reg.Counter("fleet.alarms_cleared"),
		shards:    reg.Gauge("fleet.shards"),
		streams:   reg.Gauge("fleet.streams"),
		inflight:  reg.Gauge("fleet.inflight"),
		queueFrac: reg.Gauge("fleet.queue_frac_max"),
		p99:       reg.Gauge("fleet.p99_interval_micros"),
		interval:  reg.Histogram("fleet.interval_micros", obs.LatencyBuckets),
		delivery:  reg.Histogram("fleet.alarm_delivery_micros", obs.LatencyBuckets),
	}
}

// Record is one analyzed interval of one stream.
type Record struct {
	Index      int
	Start, End int64
	LogDensity float64
	Anomalous  bool
	// ModelVersion is the registry model that scored the interval —
	// hot swaps are visible per record.
	ModelVersion int
	// Event is the alarm transition this interval triggered, if any.
	Event *alarm.Event
}

// item is one queued interval.
type item struct {
	stream int
	m      *heatmap.HeatMap
}

// streamState is one monitored stream. Stream→shard affinity means
// exactly one worker assigns indices and appends records; the mutex
// only fences those writes against read-side Records.
type streamState struct {
	inflight atomic.Int32

	mu      sync.Mutex
	index   int
	records []Record
	rt      *alarm.Runtime
}

// worker is one shard worker's private state. Because hot swap means
// different streams on one shard may score under different engines, the
// worker keeps a scorer per engine it has seen (engines are few — the
// live model generations — and immutable).
type worker struct {
	scorers map[*score.Engine]*score.Scorer
	vbuf    []float64
}

func (w *worker) scorerFor(eng *score.Engine) *score.Scorer {
	sc := w.scorers[eng]
	if sc == nil {
		sc = eng.NewScorer()
		w.scorers[eng] = sc
	}
	return sc
}

// Controller is the live fleet control plane: a fixed pool of shard
// workers draining bounded FIFO queues, with per-stream admission
// control and the copy-on-write model registry deciding which engine
// scores each interval.
type Controller struct {
	cfg       Config
	region    heatmap.Def
	reg       *Registry
	streams   []*streamState
	met       fleetMetrics
	highWater int

	mu      sync.RWMutex // fences Submit against Close
	workers []*worker
	chans   []chan item
	closed  bool
	wg      sync.WaitGroup
}

// New builds the controller for a fixed stream population over a
// trained detector (model version 1 in the registry).
func New(det *core.Detector, streams int, cfg Config) (*Controller, error) {
	if det == nil {
		return nil, fmt.Errorf("fleet: nil detector: %w", ErrConfig)
	}
	if streams <= 0 {
		return nil, fmt.Errorf("fleet: %d streams: %w", streams, ErrConfig)
	}
	if err := cfg.fill(streams); err != nil {
		return nil, err
	}
	base, err := NewModel(det, cfg.Quantile, 1)
	if err != nil {
		return nil, err
	}
	reg, err := NewRegistry(streams, base)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:       cfg,
		region:    det.Region,
		reg:       reg,
		streams:   make([]*streamState, streams),
		met:       newFleetMetrics(cfg.Metrics),
		highWater: highWaterMark(cfg.QueueDepth, cfg.HighWaterFrac),
	}
	for i := range c.streams {
		rt, err := alarm.NewRuntime(cfg.Alarm)
		if err != nil {
			return nil, err
		}
		c.streams[i] = &streamState{rt: rt}
	}
	c.met.streams.Set(float64(streams))
	c.workers = make([]*worker, cfg.Shards)
	c.chans = make([]chan item, cfg.Shards)
	for i := range c.workers {
		c.workers[i] = &worker{
			scorers: make(map[*score.Engine]*score.Scorer),
			vbuf:    make([]float64, det.Region.Cells()),
		}
		c.chans[i] = make(chan item, cfg.QueueDepth)
		c.wg.Add(1)
		go c.run(i)
	}
	c.met.shards.Set(float64(cfg.Shards))
	return c, nil
}

// Submit offers one completed MHM of a stream. It never blocks: under
// overload the submission is shed
// (admitted=false) according to the per-stream fairness policy, and the
// monitor keeps its interval cadence. The error is non-nil only for
// invalid submissions or a closed controller.
func (c *Controller) Submit(stream int, m *heatmap.HeatMap) (admitted bool, err error) {
	if stream < 0 || stream >= len(c.streams) {
		return false, fmt.Errorf("fleet: stream %d out of [0,%d): %w", stream, len(c.streams), ErrConfig)
	}
	if !m.Matches(c.region) {
		return false, fmt.Errorf("fleet: stream %d: %w", stream, core.ErrRegionMismatch)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return false, ErrClosed
	}
	c.met.submitted.Inc()
	st := c.streams[stream]
	shard := RouteStream(stream, len(c.chans))
	ch := c.chans[shard]
	reason := admitVerdict(len(ch), c.cfg.QueueDepth, int(st.inflight.Load()),
		c.cfg.MaxPerStream, c.highWater)
	if reason != "" {
		c.met.shed.Inc()
		return false, nil
	}
	st.inflight.Add(1)
	c.met.inflight.Add(1)
	select {
	case ch <- item{stream: stream, m: m}:
		c.met.admitted.Inc()
		return true, nil
	default:
		// The queue filled between the verdict and the send; shed.
		st.inflight.Add(-1)
		c.met.inflight.Add(-1)
		c.met.shed.Inc()
		return false, nil
	}
}

// run is one shard worker: it drains the shard's FIFO queue, resolving
// each interval's model through the registry (hot-swap boundary), then
// scoring and recording in submission order.
func (c *Controller) run(shard int) {
	defer c.wg.Done()
	w := c.workers[shard]
	for it := range c.chans[shard] {
		start := time.Now()
		st := c.streams[it.stream]

		st.mu.Lock()
		idx := st.index
		st.index++
		st.mu.Unlock()

		mdl := c.reg.ModelFor(it.stream, idx)
		it.m.VectorInto(w.vbuf)
		lp, err := w.scorerFor(mdl.eng).Score(w.vbuf)
		if err != nil {
			// Unreachable: Submit pinned the region, so the vector length
			// always matches the engine.
			panic("fleet: score: " + err.Error())
		}
		anomalous := lp < mdl.theta
		rec := Record{
			Index:        idx,
			Start:        it.m.Start,
			End:          it.m.End,
			LogDensity:   lp,
			Anomalous:    anomalous,
			ModelVersion: mdl.version,
		}

		st.mu.Lock()
		rec.Event = st.rt.Observe(anomalous, it.m.End)
		st.records = append(st.records, rec)
		st.mu.Unlock()

		st.inflight.Add(-1)
		c.met.inflight.Add(-1)
		if anomalous {
			c.met.anomalous.Inc()
		}
		micros := float64(time.Since(start).Nanoseconds()) / 1e3
		c.met.interval.Observe(micros)
		if rec.Event != nil {
			if rec.Event.Raised {
				c.met.raised.Inc()
			} else {
				c.met.cleared.Inc()
			}
			c.met.delivery.Observe(micros)
		}
	}
}

// Records returns the analyzed intervals of one stream so far, in
// submission order.
func (c *Controller) Records(stream int) ([]Record, error) {
	if stream < 0 || stream >= len(c.streams) {
		return nil, fmt.Errorf("fleet: stream %d out of [0,%d): %w", stream, len(c.streams), ErrConfig)
	}
	st := c.streams[stream]
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Record, len(st.records))
	copy(out, st.records)
	return out, nil
}

// Close drains the queues, stops the workers, and waits for them.
// Further Submit calls fail; Records remain readable.
func (c *Controller) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, ch := range c.chans {
		close(ch)
	}
	c.mu.Unlock()
	c.wg.Wait()
}
