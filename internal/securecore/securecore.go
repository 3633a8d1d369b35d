// Package securecore assembles the paper's dual-core monitoring
// architecture in simulation: the monitored core (RTOS + workload over
// the synthetic kernel) generates a kernel instruction-fetch stream, the
// Memometer snoops it into memory heat maps, and the secure core — the
// analysis side — receives one completed MHM per monitoring interval.
package securecore

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/memheatmap/mhm/internal/cache"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/kernelmap"
	"github.com/memheatmap/mhm/internal/memometer"
	"github.com/memheatmap/mhm/internal/obs"
	"github.com/memheatmap/mhm/internal/rtos"
	"github.com/memheatmap/mhm/internal/sim"
	"github.com/memheatmap/mhm/internal/trace"
)

// ErrMonitor wraps monitoring pipeline failures.
var ErrMonitor = errors.New("securecore: monitoring failure")

// emitChunkMicros bounds how coarsely a syscall segment's fetches are
// spread over its execution window; smaller chunks split bursts more
// accurately across interval boundaries.
const emitChunkMicros = 250

// Monitor implements rtos.ExecListener: it converts scheduler activity
// into kernel .text fetch bursts via the image's service catalog and
// snoops them into the Memometer. Completed MHMs are handed to the sink.
type Monitor struct {
	img  *kernelmap.Image
	dev  *memometer.Device // nil in port mode (SMP front-end owns the device)
	rng  *rand.Rand
	sink func(*heatmap.HeatMap) error

	// burst is where filtered accesses go: the local device by default,
	// an SMP merge port in port mode.
	burst func(a trace.Access) error
	// icache, when set, sits between emission and the burst sink: only
	// misses are visible (the §5.5 below-the-cache placement).
	icache *cache.ICache
	// tap, when set, records the raw bus traffic (before any cache
	// filter) so a captured trace can be replayed through other
	// Memometer configurations.
	tap *trace.Writer

	tickSvc *kernelmap.Service
	ctxSvc  *kernelmap.Service
	idleSvc *kernelmap.Service

	inIdle    bool
	idleSince int64

	buf []trace.Access // reused emission buffer

	// emitted/delivered are observability counters (nil until
	// SetMetrics): completed MHMs handed to the sink and bursts pushed
	// through the cache filter into the snoop point.
	emitted   *obs.Counter
	delivered *obs.Counter

	err error // first pipeline error; checked via Err()
}

// newEmitter builds the service-emission half of a Monitor.
func newEmitter(img *kernelmap.Image, seed int64) (*Monitor, error) {
	if img == nil {
		return nil, fmt.Errorf("securecore: nil image: %w", ErrMonitor)
	}
	m := &Monitor{
		img: img,
		rng: rand.New(rand.NewSource(seed)),
	}
	var err error
	if m.tickSvc, err = img.Service(kernelmap.SvcSchedTick); err != nil {
		return nil, err
	}
	if m.ctxSvc, err = img.Service(kernelmap.SvcCtxSwitch); err != nil {
		return nil, err
	}
	if m.idleSvc, err = img.Service(kernelmap.SvcIdleLoop); err != nil {
		return nil, err
	}
	return m, nil
}

// NewMonitor configures a Memometer for the image's region and wires it
// to sink. The rng seed controls the per-burst emission noise.
func NewMonitor(img *kernelmap.Image, cfg memometer.Config, seed int64, sink func(*heatmap.HeatMap) error) (*Monitor, error) {
	m, err := newEmitter(img, seed)
	if err != nil {
		return nil, err
	}
	if sink == nil {
		sink = func(*heatmap.HeatMap) error { return nil }
	}
	dev := memometer.New()
	if err := dev.Configure(cfg); err != nil {
		return nil, err
	}
	m.dev = dev
	m.sink = sink
	m.burst = func(a trace.Access) error {
		if err := dev.SnoopBurst(a.Time, a.Addr, a.Count); err != nil {
			return err
		}
		for dev.HasPending() {
			hm, err := dev.Collect()
			if err != nil {
				return err
			}
			if err := m.sink(hm); err != nil {
				return err
			}
			m.emitted.Inc()
		}
		return nil
	}
	return m, nil
}

// SetMetrics installs observability counters on the monitor and its
// Memometer (catalogue: DESIGN.md §6). A nil registry uninstalls them.
func (m *Monitor) SetMetrics(r *obs.Registry) {
	m.emitted = r.Counter("securecore.mhm_emitted")
	m.delivered = r.Counter("securecore.bursts_delivered")
	if m.dev != nil {
		m.dev.SetMetrics(r)
	}
}

// NewPortMonitor builds a Monitor that emits into an arbitrary burst
// sink instead of its own Memometer — the per-core front end of the
// SMP architecture (§5.5), where all cores share one set of MHM
// memories behind replicated snoop/filter ports.
func NewPortMonitor(img *kernelmap.Image, seed int64, burst func(a trace.Access) error) (*Monitor, error) {
	if burst == nil {
		return nil, fmt.Errorf("securecore: nil burst sink: %w", ErrMonitor)
	}
	m, err := newEmitter(img, seed)
	if err != nil {
		return nil, err
	}
	m.burst = burst
	return m, nil
}

// SetICache installs an instruction-cache model between emission and the
// snoop point; only misses reach the heat map. Call before running.
func (m *Monitor) SetICache(c *cache.ICache) { m.icache = c }

// SetTraceWriter installs a tap recording the raw bus traffic (before
// any cache filter). Call before running; Flush the writer after the
// run.
func (m *Monitor) SetTraceWriter(w *trace.Writer) { m.tap = w }

// Err returns the first pipeline error, if any. Listener callbacks have
// no error channel, so failures latch here and suppress further work.
func (m *Monitor) Err() error { return m.err }

// fail latches the first error.
func (m *Monitor) fail(err error) {
	if m.err == nil && err != nil {
		m.err = fmt.Errorf("%w: %w", ErrMonitor, err)
	}
}

// deliver pushes buffered accesses through the optional cache filter
// into the burst sink.
func (m *Monitor) deliver() {
	if m.err != nil {
		m.buf = m.buf[:0]
		return
	}
	for _, a := range m.buf {
		if m.tap != nil {
			if err := m.tap.Write(a); err != nil {
				m.fail(err)
				break
			}
		}
		if m.icache != nil {
			// A fully-hit burst still reaches the sink with count 0 so
			// the device clock advances and interval boundaries close
			// during cache-quiet stretches.
			a.Count = m.icache.AccessBurst(a.Addr, a.Count)
		}
		if err := m.burst(a); err != nil {
			m.fail(err)
			break
		}
		m.delivered.Inc()
	}
	m.buf = m.buf[:0]
}

// AdvanceTo pushes the device clock to t, closing any pending interval;
// call at the end of a run to flush the final MHMs. In port mode (SMP)
// the merge front-end owns the device clock and this is a no-op.
func (m *Monitor) AdvanceTo(t int64) error {
	if m.err != nil || m.dev == nil {
		return m.err
	}
	if err := m.dev.Tick(t); err != nil {
		m.fail(err)
		return m.err
	}
	for m.dev.HasPending() {
		hm, err := m.dev.Collect()
		if err != nil {
			m.fail(err)
			return m.err
		}
		if err := m.sink(hm); err != nil {
			m.fail(err)
			return m.err
		}
		m.emitted.Inc()
	}
	return m.err
}

// OnSlice implements rtos.ExecListener: syscall segments emit their
// service's fetches spread across the executed window; compute segments
// run in user space and emit nothing.
func (m *Monitor) OnSlice(task *rtos.Task, seg rtos.Segment, start, end int64, frac0, frac1 float64) {
	if m.err != nil || seg.Kind != rtos.Syscall || end <= start || frac1 <= frac0 {
		return
	}
	svc, err := m.img.Service(seg.Service)
	if err != nil {
		m.fail(err)
		return
	}
	totalScale := float64(seg.Invocations) * (frac1 - frac0)
	span := end - start
	// Spread emission over the window in bounded chunks so bursts land
	// in the right monitoring interval even when a segment straddles a
	// boundary.
	for off := int64(0); off < span; off += emitChunkMicros {
		chunk := span - off
		if chunk > emitChunkMicros {
			chunk = emitChunkMicros
		}
		scale := totalScale * float64(chunk) / float64(span)
		m.buf = svc.Emit(m.rng, start+off, scale, m.buf)
	}
	m.deliver()
}

// OnContextSwitch implements rtos.ExecListener: dispatches emit the
// context-switch path; transitions into idle start idle accounting and
// transitions out flush it.
func (m *Monitor) OnContextSwitch(t int64, from, to string) {
	if m.err != nil {
		return
	}
	if m.inIdle && to != "" {
		m.emitIdle(t)
		m.inIdle = false
	}
	m.buf = m.ctxSvc.Emit(m.rng, t, 1, m.buf)
	if to == "" {
		m.inIdle = true
		m.idleSince = t
	}
	m.deliver()
}

// OnTick implements rtos.ExecListener: the timer interrupt and scheduler
// tick path. During idle, each tick also flushes the idle loop's fetches
// accrued since the last emission point.
func (m *Monitor) OnTick(t int64) {
	if m.err != nil {
		return
	}
	if m.inIdle {
		m.emitIdle(t)
		m.idleSince = t
	}
	m.buf = m.tickSvc.Emit(m.rng, t, 1, m.buf)
	m.deliver()
}

// OnIdle implements rtos.ExecListener: it flushes the tail of an idle
// period (the incremental chunks were already emitted on ticks).
func (m *Monitor) OnIdle(start, end int64) {
	if m.err != nil || !m.inIdle {
		return
	}
	m.emitIdle(end)
	m.idleSince = end
	m.deliver()
}

// emitIdle emits the idle loop's fetches for [idleSince, t). The idle
// service's fetch budget is per millisecond of idling.
func (m *Monitor) emitIdle(t int64) {
	if t <= m.idleSince {
		return
	}
	span := t - m.idleSince
	for off := int64(0); off < span; off += 1000 {
		chunk := span - off
		if chunk > 1000 {
			chunk = 1000
		}
		m.buf = m.idleSvc.Emit(m.rng, m.idleSince+off, float64(chunk)/1000, m.buf)
	}
}

// OnJobRelease implements rtos.ExecListener. Job release goes through
// the scheduler's wakeup path; its fetches are folded into the
// context-switch and tick services, so nothing extra is emitted here.
func (m *Monitor) OnJobRelease(int64, *rtos.Task, int64) {}

// OnJobComplete implements rtos.ExecListener.
func (m *Monitor) OnJobComplete(int64, *rtos.Task, int64, bool) {}

// Session bundles a complete monitored-core setup: engine, scheduler and
// monitor, ready to run scenarios.
type Session struct {
	Engine    *sim.Engine
	Scheduler *rtos.Scheduler
	Monitor   *Monitor
	Image     *kernelmap.Image

	maps []*heatmap.HeatMap
}

// SessionConfig parameterizes NewSession.
type SessionConfig struct {
	// Region to monitor; zero value means the image's full span at the
	// paper's 2 KB granularity.
	Region heatmap.Def
	// IntervalMicros is the monitoring interval (default 10,000 = 10 ms).
	IntervalMicros int64
	// TickPeriod for the RTOS (default 1,000 = 1 ms).
	TickPeriod int64
	// NoiseSeed controls emission noise; vary it across training runs.
	NoiseSeed int64
	// ExtraListeners receive scheduler events alongside the monitor
	// (e.g. statistics recorders).
	ExtraListeners []rtos.ExecListener
	// Cache, when non-nil, places an instruction-cache model between the
	// monitored core and the Memometer (§5.5's below-the-cache snoop
	// point): only misses are counted into the heat maps.
	Cache *cache.Config
	// OnMHM, when non-nil, receives every completed MHM as it is
	// collected (in addition to Session-internal accumulation) — the
	// hook for online per-interval analysis.
	OnMHM func(*heatmap.HeatMap) error
}

// NewSession builds a session over img running the given tasks. MHMs are
// accumulated internally and returned by Run.
func NewSession(img *kernelmap.Image, tasks []*rtos.Task, cfg SessionConfig) (*Session, error) {
	if cfg.IntervalMicros == 0 {
		cfg.IntervalMicros = 10000
	}
	if cfg.TickPeriod == 0 {
		cfg.TickPeriod = 1000
	}
	if cfg.Region == (heatmap.Def{}) {
		cfg.Region = heatmap.Def{AddrBase: img.Base, Size: img.Size, Gran: 2048}
	}
	s := &Session{Engine: sim.NewEngine(), Image: img}
	mon, err := NewMonitor(img, memometer.Config{
		Region:         cfg.Region,
		IntervalMicros: cfg.IntervalMicros,
	}, cfg.NoiseSeed, func(hm *heatmap.HeatMap) error {
		s.maps = append(s.maps, hm)
		if cfg.OnMHM != nil {
			return cfg.OnMHM(hm)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.Monitor = mon
	if cfg.Cache != nil {
		ic, err := cache.New(*cfg.Cache)
		if err != nil {
			return nil, err
		}
		mon.SetICache(ic)
	}
	var listener rtos.ExecListener = mon
	if len(cfg.ExtraListeners) > 0 {
		listener = rtos.Tee(append([]rtos.ExecListener{mon}, cfg.ExtraListeners...)...)
	}
	sched, err := rtos.NewScheduler(s.Engine, rtos.Config{TickPeriod: cfg.TickPeriod}, tasks, listener)
	if err != nil {
		return nil, err
	}
	s.Scheduler = sched
	return s, nil
}

// Run starts the scheduler (if not yet started) and advances the
// simulation to the horizon, returning all MHMs completed so far. It may
// be called repeatedly with growing horizons.
func (s *Session) Run(horizon int64) ([]*heatmap.HeatMap, error) {
	if s.Engine.Now() == 0 {
		if err := s.Scheduler.Start(); err != nil {
			return nil, err
		}
	}
	if _, err := s.Engine.Run(horizon); err != nil {
		return nil, err
	}
	s.Scheduler.FinishIdle()
	if err := s.Monitor.AdvanceTo(horizon); err != nil {
		return nil, err
	}
	return s.maps, nil
}

// Maps returns the MHMs collected so far.
func (s *Session) Maps() []*heatmap.HeatMap { return s.maps }
