// The deterministic fleet simulator: the test harness the control
// plane is designed around. Real goroutine interleavings make a live
// controller impossible to assert decision-by-decision, so the
// simulator re-runs the same decision functions — RouteStream,
// admitVerdict, Registry.ModelFor — on a virtual microsecond clock with
// a seeded workload and scripted fault injection. Admission, shedding,
// hot swaps and alarm deliveries are decided in a sequential pass over
// time-sorted events (bit-reproducible by construction); only the
// scoring of the admitted batch fans out over real goroutines, writing
// densities into per-slot storage exactly like the training engine's
// chunk dispatch — so two runs with the same seed produce byte-identical
// decision traces and alarm sequences at any parallelism, including
// under -race.
//
// The queueing model: a fixed set of shards, each serving its FIFO
// queue one interval at a time, ServiceMicros of virtual work per
// interval. An admitted interval starts at max(arrival, shard backlog).
// A stream never leaves its shard, so its intervals complete in
// submission order.
package fleet

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"github.com/memheatmap/mhm/internal/alarm"
	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/obs"
	"github.com/memheatmap/mhm/internal/score"
	"github.com/memheatmap/mhm/internal/train"
)

// Fault kinds for scripted injection.
const (
	// FaultOverload multiplies the affected streams' submission rate by
	// Factor during the window — the shedding trigger.
	FaultOverload = "overload"
	// FaultAnomaly makes the affected streams emit anomalous heat maps
	// during the window — the alarm trigger.
	FaultAnomaly = "anomaly"
	// FaultSwap schedules a hot swap to the refreshed model for the
	// affected streams at per-stream interval boundary SwapInterval.
	FaultSwap = "swap"
)

// Fault is one scripted injection.
type Fault struct {
	Kind                    string
	FromMicros, UntilMicros int64
	// StreamLo, StreamHi bound the affected streams [lo, hi); 0,0 means
	// every stream.
	StreamLo, StreamHi int
	// Factor is the overload rate multiplier.
	Factor float64
	// SwapInterval is the FaultSwap per-stream boundary index.
	SwapInterval int
}

func (f *Fault) fill(streams int) error {
	switch f.Kind {
	case FaultOverload:
		if f.Factor <= 0 {
			return fmt.Errorf("fleet: %s fault factor %g: %w", f.Kind, f.Factor, ErrConfig)
		}
	case FaultAnomaly:
	case FaultSwap:
		if f.SwapInterval < 0 {
			return fmt.Errorf("fleet: swap fault at interval %d: %w", f.SwapInterval, ErrConfig)
		}
	default:
		return fmt.Errorf("fleet: unknown fault kind %q: %w", f.Kind, ErrConfig)
	}
	if f.StreamLo == 0 && f.StreamHi == 0 {
		f.StreamHi = streams
	}
	if f.StreamLo < 0 || f.StreamHi > streams || f.StreamLo >= f.StreamHi {
		return fmt.Errorf("fleet: fault streams [%d,%d): %w", f.StreamLo, f.StreamHi, ErrConfig)
	}
	if f.UntilMicros == 0 {
		f.UntilMicros = int64(1) << 62
	}
	return nil
}

// covers reports whether the fault affects stream s at virtual time t.
//
//mhm:deterministic
func (f *Fault) covers(t int64, s int) bool {
	return t >= f.FromMicros && t < f.UntilMicros && s >= f.StreamLo && s < f.StreamHi
}

// SimConfig parameterizes one simulation run.
type SimConfig struct {
	// Streams is the simulated device population (required).
	Streams int
	// Seed drives the workload generator, arrival jitter and detector
	// training; equal seeds reproduce runs byte-identically.
	Seed int64
	// HorizonMicros is the simulated duration (default 300_000 = 30
	// monitoring intervals).
	HorizonMicros int64
	// IntervalMicros is the monitoring interval (default 10_000, the
	// paper's 10 ms).
	IntervalMicros int64
	// JitterMicros bounds per-emission arrival jitter (default 500).
	JitterMicros int64
	// Shards is the fixed shard count (default 4, capped at Streams).
	Shards int
	// QueueDepth, MaxPerStream, HighWaterFrac: admission parameters,
	// defaults as in Config.
	QueueDepth    int
	MaxPerStream  int
	HighWaterFrac float64
	// ServiceMicros is the virtual analysis cost per interval
	// (default 50).
	ServiceMicros int64
	// Quantile selects the base model's threshold (default 0.01).
	Quantile float64
	// Alarm configures per-stream debouncing.
	Alarm alarm.Config
	// Faults is the injection script.
	Faults []Fault
	// Workers bounds the real goroutines scoring admitted batches
	// (default GOMAXPROCS; results are identical for every value).
	Workers int
	// Metrics receives the fleet metric set when non-nil.
	Metrics *obs.Registry
	// Trace records the decision trace when non-nil.
	Trace *Trace
}

func (c *SimConfig) fill() error {
	if c.Streams <= 0 {
		return fmt.Errorf("fleet: %d streams: %w", c.Streams, ErrConfig)
	}
	if c.HorizonMicros == 0 {
		c.HorizonMicros = 300_000
	}
	if c.IntervalMicros == 0 {
		c.IntervalMicros = 10_000
	}
	if c.HorizonMicros <= 0 || c.IntervalMicros <= 0 || c.JitterMicros < 0 ||
		c.JitterMicros >= c.IntervalMicros {
		return fmt.Errorf("fleet: horizon/interval/jitter %d/%d/%d: %w",
			c.HorizonMicros, c.IntervalMicros, c.JitterMicros, ErrConfig)
	}
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.Shards < 0 {
		return fmt.Errorf("fleet: %d shards: %w", c.Shards, ErrConfig)
	}
	if c.Shards > c.Streams {
		c.Shards = c.Streams
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
	if c.ServiceMicros == 0 {
		c.ServiceMicros = 50
	}
	if c.ServiceMicros < 0 {
		return fmt.Errorf("fleet: service %dµs: %w", c.ServiceMicros, ErrConfig)
	}
	if c.Quantile == 0 {
		c.Quantile = 0.01
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	for i := range c.Faults {
		if err := c.Faults[i].fill(c.Streams); err != nil {
			return err
		}
	}
	return nil
}

// AlarmEvent is one alarm transition delivered by the fleet.
type AlarmEvent struct {
	Stream   int
	Interval int // per-stream scored interval index
	Raised   bool
	// AtMicros is the triggering interval's end time; DeliveredMicros is
	// when its analysis completed (the operator sees the alarm then).
	AtMicros        int64
	DeliveredMicros int64
}

// SimResult summarizes one run.
type SimResult struct {
	Submitted, Admitted, Shed int64
	Anomalous                 int64
	SwapsScheduled            int64
	// DroppedIntervals counts admitted intervals that resolved no model
	// (the registry returned nil). Hot swaps must never drop a stream's
	// interval, so this is 0 by invariant; the refresh experiments
	// assert it.
	DroppedIntervals int64
	// Shards is the shard count the run served on, after the default
	// and the stream-count cap.
	Shards int
	Alarms []AlarmEvent
	// Interval completion latency over admitted intervals, virtual µs.
	P50IntervalMicros, P99IntervalMicros float64
	// Alarm delivery latency (completion − interval end) over raise
	// transitions, virtual µs.
	P99DeliveryMicros float64
	// MaxQueueFrac is the fullest any shard queue got, as a fraction of
	// QueueDepth, read at every admission.
	MaxQueueFrac float64
}

// ModelMaintainer observes every scored interval from the simulator's
// sequential verdict pass — stream, per-stream admitted index, the
// verdict under the scoring model, the log density, and the raw MHM
// vector (valid only for the duration of the call). Implementations
// drive online model maintenance: they may schedule registry swaps from
// inside Observe. Because the pass is sequential and in admission
// order, a maintainer's decisions are deterministic at any worker
// count.
type ModelMaintainer interface {
	Observe(stream, scoredIdx int, anomalous bool, density float64, vec []float64)
}

// Sim is one configured simulation. Build with NewSim, run once with
// Run.
type Sim struct {
	cfg SimConfig
	wl  *Workload
	det *core.Detector
	reg *Registry
	met fleetMetrics
	mnt ModelMaintainer
}

// SetMaintainer installs a model maintainer before Run. The simulator
// materializes each scored interval's vector for it (one extra
// generator pass per interval), so leave it nil when not refreshing.
func (s *Sim) SetMaintainer(m ModelMaintainer) { s.mnt = m }

// SimRegion is the heat-map region the simulator monitors: 64 cells of
// 256 B — small enough that a 100k-stream run scores millions of
// intervals in seconds, structured enough for the detector to separate
// the workload's anomalous pattern.
var SimRegion = heatmap.Def{AddrBase: 0x2000_0000, Size: 64 * 256, Gran: 256}

// NewSim trains the base detector from the seeded workload and prepares
// the run. The refreshed model (version 2, recalibrated at the sharper
// θ0.5 threshold) backs FaultSwap injections.
func NewSim(cfg SimConfig) (*Sim, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	wl, err := NewWorkload(cfg.Seed, SimRegion)
	if err != nil {
		return nil, err
	}
	det, err := wl.TrainDetector(192, 96)
	if err != nil {
		return nil, fmt.Errorf("fleet: sim detector: %w", err)
	}
	base, err := NewModel(det, cfg.Quantile, 1)
	if err != nil {
		return nil, err
	}
	reg, err := NewRegistry(cfg.Streams, base)
	if err != nil {
		return nil, err
	}
	return &Sim{cfg: cfg, wl: wl, det: det, reg: reg, met: newFleetMetrics(cfg.Metrics)}, nil
}

// Detector exposes the trained base detector (tests derive reference
// scorers from it).
func (s *Sim) Detector() *core.Detector { return s.det }

// Registry exposes the per-stream model registry (tests assert swap
// boundaries landed).
func (s *Sim) Registry() *Registry { return s.reg }

// simEvent is one due submission in a tick bucket.
type simEvent struct {
	t      int64
	stream int
	genIdx int // generator interval number (includes shed emissions)
}

// simJob is one admitted interval awaiting scoring.
type simJob struct {
	stream    int
	scoredIdx int // per-stream admitted index (registry boundary domain)
	genIdx    int
	mdl       *Model
	t         int64 // interval end / arrival
	done      int64 // virtual completion
	anomalous bool  // generator-level (fault window), not the verdict
}

// simScratch is one worker's scoring state, pooled across chunks.
type simScratch struct {
	scorers map[*score.Engine]*score.Scorer
	vbuf    []float64
}

// qitem is one in-flight interval in a shard's FIFO.
type qitem struct {
	done   int64
	stream int
}

// Run executes the simulation. It may be called once per Sim.
func (s *Sim) Run() (*SimResult, error) {
	cfg := &s.cfg
	tr := cfg.Trace
	res := &SimResult{Shards: cfg.Shards}

	// Schedule FaultSwap injections up front: boundaries are per-stream
	// interval indices, so scheduling time does not matter.
	altModel, err := NewModel(s.det, 0.005, 2)
	if err != nil {
		return nil, err
	}
	for i := range cfg.Faults {
		f := &cfg.Faults[i]
		if f.Kind != FaultSwap {
			continue
		}
		for st := f.StreamLo; st < f.StreamHi; st++ {
			if err := s.reg.SwapAt(st, f.SwapInterval, altModel); err != nil {
				return nil, err
			}
			res.SwapsScheduled++
			s.met.swaps.Inc()
		}
		tr.Eventf("t=%d swap streams=[%d,%d) at=%d version=%d",
			f.FromMicros, f.StreamLo, f.StreamHi, f.SwapInterval, altModel.version)
	}

	// Per-stream state.
	n := cfg.Streams
	next := make([]int64, n)   // next emission time
	genIdx := make([]int, n)   // emissions so far
	scored := make([]int, n)   // admitted (scored) intervals so far
	inflight := make([]int, n) // queued, not yet complete
	rts := make([]*alarm.Runtime, n)
	for i := range rts {
		rt, err := alarm.NewRuntime(cfg.Alarm)
		if err != nil {
			return nil, err
		}
		rts[i] = rt
		// Stagger stream phases across the interval.
		next[i] = int64(splitmix64(uint64(cfg.Seed)^uint64(i)*0x9e3779b97f4a7c15) % uint64(cfg.IntervalMicros))
	}
	s.met.streams.Set(float64(n))

	// Shard state.
	busyUntil := make([]int64, cfg.Shards)
	queues := make([][]qitem, cfg.Shards)
	s.met.shards.Set(float64(cfg.Shards))

	highWater := highWaterMark(cfg.QueueDepth, cfg.HighWaterFrac)

	var latencies, deliveryLat []float64

	pool := sync.Pool{New: func() any {
		return &simScratch{
			scorers: make(map[*score.Engine]*score.Scorer),
			vbuf:    make([]float64, SimRegion.Cells()),
		}
	}}

	var events []simEvent
	var admitted []simJob
	var dens []float64
	var mntVec []float64
	if s.mnt != nil {
		mntVec = make([]float64, SimRegion.Cells())
	}

	for tick := int64(0); tick < cfg.HorizonMicros; tick += cfg.IntervalMicros {
		tickEnd := tick + cfg.IntervalMicros

		// Collect the tick's emissions, time-sorted with stream as the
		// tie-break so the admission order is total.
		events = events[:0]
		for st := 0; st < n; st++ {
			for next[st] < tickEnd {
				events = append(events, simEvent{t: next[st], stream: st, genIdx: genIdx[st]})
				genIdx[st]++
				period := cfg.IntervalMicros
				for i := range cfg.Faults {
					f := &cfg.Faults[i]
					if f.Kind == FaultOverload && f.covers(next[st], st) {
						period = int64(float64(period) / f.Factor)
						if period < 1 {
							period = 1
						}
					}
				}
				adv := period + s.wl.jitter(st, genIdx[st], cfg.JitterMicros)
				if adv < 1 {
					adv = 1
				}
				next[st] += adv
			}
		}
		sort.Slice(events, func(i, j int) bool {
			if events[i].t != events[j].t {
				return events[i].t < events[j].t
			}
			return events[i].stream < events[j].stream
		})

		// Sequential admission pass: every decision in event order.
		admitted = admitted[:0]
		for _, ev := range events {
			res.Submitted++
			s.met.submitted.Inc()
			sh := RouteStream(ev.stream, cfg.Shards)
			drainShard(queues, inflight, sh, ev.t)
			reason := admitVerdict(len(queues[sh]), cfg.QueueDepth, inflight[ev.stream],
				cfg.MaxPerStream, highWater)
			if reason != "" {
				res.Shed++
				s.met.shed.Inc()
				tr.Eventf("t=%d shed stream=%d shard=%d qlen=%d inflight=%d reason=%s",
					ev.t, ev.stream, sh, len(queues[sh]), inflight[ev.stream], reason)
				continue
			}
			idx := scored[ev.stream]
			scored[ev.stream]++
			mdl := s.reg.ModelFor(ev.stream, idx)
			if mdl == nil {
				// Never expected: registry slots always hold a model and
				// a swap replaces the pointer atomically. Counted rather
				// than panicked so the refresh experiments can assert the
				// zero-drop invariant held end to end.
				res.DroppedIntervals++
				continue
			}
			done := max(ev.t, busyUntil[sh]) + cfg.ServiceMicros
			busyUntil[sh] = done
			queues[sh] = append(queues[sh], qitem{done: done, stream: ev.stream})
			inflight[ev.stream]++
			if f := float64(len(queues[sh])) / float64(cfg.QueueDepth); f > res.MaxQueueFrac {
				res.MaxQueueFrac = f
			}
			anom := false
			for i := range cfg.Faults {
				f := &cfg.Faults[i]
				if f.Kind == FaultAnomaly && f.covers(ev.t, ev.stream) {
					anom = true
				}
			}
			admitted = append(admitted, simJob{
				stream: ev.stream, scoredIdx: idx, genIdx: ev.genIdx,
				mdl: mdl, t: ev.t, done: done, anomalous: anom,
			})
			lat := float64(done - ev.t)
			latencies = append(latencies, lat)
			res.Admitted++
			s.met.admitted.Inc()
			s.met.interval.Observe(lat)
		}

		// Parallel scoring of the admitted batch: densities land in
		// per-slot storage, so the fold below is order-independent and
		// bit-identical at any worker count.
		if cap(dens) < len(admitted) {
			dens = make([]float64, len(admitted))
		}
		dens = dens[:len(admitted)]
		train.Chunks(len(admitted), 64, cfg.Workers, func(lo, hi, _ int) {
			sc := pool.Get().(*simScratch)
			defer pool.Put(sc)
			for i := lo; i < hi; i++ {
				j := &admitted[i]
				s.wl.VectorInto(sc.vbuf, j.stream, j.genIdx, j.anomalous)
				scorer := sc.scorers[j.mdl.eng]
				if scorer == nil {
					scorer = j.mdl.eng.NewScorer()
					sc.scorers[j.mdl.eng] = scorer
				}
				lp, err := scorer.Score(sc.vbuf)
				if err != nil {
					panic("fleet: sim score: " + err.Error())
				}
				dens[i] = lp
			}
		})

		// Sequential verdict + alarm pass in admission order.
		for i := range admitted {
			j := &admitted[i]
			anomalous := dens[i] < j.mdl.theta
			if anomalous {
				res.Anomalous++
				s.met.anomalous.Inc()
			}
			if s.mnt != nil {
				s.wl.VectorInto(mntVec, j.stream, j.genIdx, j.anomalous)
				s.mnt.Observe(j.stream, j.scoredIdx, anomalous, dens[i], mntVec)
			}
			ev := rts[j.stream].Observe(anomalous, j.t)
			if ev == nil {
				continue
			}
			res.Alarms = append(res.Alarms, AlarmEvent{
				Stream: j.stream, Interval: j.scoredIdx, Raised: ev.Raised,
				AtMicros: j.t, DeliveredMicros: j.done,
			})
			tr.Eventf("t=%d alarm stream=%d interval=%d raised=%t delivered=%d",
				j.t, j.stream, j.scoredIdx, ev.Raised, j.done)
			if ev.Raised {
				s.met.raised.Inc()
				deliveryLat = append(deliveryLat, float64(j.done-j.t))
				s.met.delivery.Observe(float64(j.done - j.t))
			} else {
				s.met.cleared.Inc()
			}
		}
	}

	lat := sortedCopy(latencies)
	res.P50IntervalMicros = quantileSorted(lat, 0.50)
	res.P99IntervalMicros = quantileSorted(lat, 0.99)
	res.P99DeliveryMicros = quantileSorted(sortedCopy(deliveryLat), 0.99)
	return res, nil
}

// drainShard completes queued intervals whose virtual finish time has
// passed, releasing the streams' in-flight slots.
//
//mhm:deterministic
func drainShard(queues [][]qitem, inflight []int, shard int, now int64) {
	q := queues[shard]
	k := 0
	for k < len(q) && q[k].done <= now {
		inflight[q[k].stream]--
		k++
	}
	if k > 0 {
		queues[shard] = q[:copy(q, q[k:])]
	}
}

// sortedCopy returns an ascending copy of xs.
//
//mhm:deterministic
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantileSorted reads the q-quantile from an ascending slice (0 when
// empty), nearest-rank.
//
//mhm:deterministic
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}
