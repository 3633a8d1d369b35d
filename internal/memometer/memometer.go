// Package memometer models the paper's on-chip monitoring hardware: a
// module that snoops the address bus between the monitored core and its
// L1 cache, filters addresses into a configured region, increments
// per-cell counters in a fast on-chip memory, and double-buffers two such
// memories so the secure core can analyze a completed MHM while the next
// interval is being recorded.
package memometer

import (
	"errors"
	"fmt"

	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/obs"
	"github.com/memheatmap/mhm/internal/trace"
)

// Default hardware sizing from the paper's prototype: two 8 KB on-chip
// memories of 32-bit counters, i.e. at most 2,048 cells per MHM.
const (
	// MemoryBytes is the size of each on-chip MHM memory.
	MemoryBytes = 8 * 1024
	// CounterBytes is the width of one cell counter.
	CounterBytes = 4
	// MaxCells is the largest MHM the on-chip memories can hold.
	MaxCells = MemoryBytes / CounterBytes
)

// Errors reported by the device model.
var (
	// ErrConfig wraps invalid monitoring parameters.
	ErrConfig = errors.New("memometer: invalid configuration")
	// ErrNotConfigured is returned when the device is used before the
	// secure core programs its control registers.
	ErrNotConfigured = errors.New("memometer: device not configured")
	// ErrNotReady is returned when the secure core reads an MHM before an
	// interval boundary has produced one.
	ErrNotReady = errors.New("memometer: no completed MHM pending")
)

// Config mirrors the device's control registers: the monitored region
// triple plus the monitoring interval.
type Config struct {
	// Region defines AddrBase, Size and Granularity.
	Region heatmap.Def
	// IntervalMicros is the monitoring interval in microseconds (the
	// paper uses 10 ms = 10,000 µs).
	IntervalMicros int64
}

// Validate checks the register values against hardware limits.
func (c Config) Validate() error {
	if err := c.Region.Validate(); err != nil {
		return fmt.Errorf("memometer: region: %w", err)
	}
	if cells := c.Region.Cells(); cells > MaxCells {
		return fmt.Errorf("memometer: %d cells exceed on-chip memory capacity %d: %w",
			cells, MaxCells, ErrConfig)
	}
	if c.IntervalMicros <= 0 {
		return fmt.Errorf("memometer: non-positive interval %d: %w", c.IntervalMicros, ErrConfig)
	}
	return nil
}

// Stats counts device activity for observability and tests.
type Stats struct {
	// Snooped is the number of bus events observed (bursts count once).
	Snooped uint64
	// Accepted is the number of bus events that fell inside the region.
	Accepted uint64
	// AcceptedAccesses is the total fetch count accepted (bursts count
	// their full size).
	AcceptedAccesses uint64
	// Intervals is the number of completed MHMs produced.
	Intervals uint64
	// Overruns counts completed MHMs that were discarded because the
	// secure core had not collected the previous one in time (both
	// on-chip memories full).
	Overruns uint64
}

// deviceMetrics mirrors Stats into live obs counters; all-nil (free)
// until SetMetrics installs a registry.
type deviceMetrics struct {
	snooped          *obs.Counter
	accepted         *obs.Counter
	acceptedAccesses *obs.Counter
	swaps            *obs.Counter
	overruns         *obs.Counter
	pending          *obs.Gauge
}

// Device is the Memometer. It is driven by two actors: the monitored
// core's bus (Snoop/SnoopBurst, plus Tick for time) and the secure core
// (Configure, Collect). The model is single-threaded by design — the
// simulation delivers events in time order. Installed metrics counters
// are atomic, so a metrics exporter may snapshot them from another
// goroutine while the simulation runs.
type Device struct {
	cfg        Config
	configured bool

	active   *heatmap.HeatMap // buffer currently recording
	shadow   *heatmap.HeatMap // buffer available for the next swap
	pending  *heatmap.HeatMap // completed MHM awaiting secure-core Collect
	started  int64            // start time of the active interval
	lastTime int64

	stats Stats
	met   deviceMetrics
}

// SetMetrics installs observability counters (catalogue: DESIGN.md §6).
// A nil registry uninstalls instrumentation.
func (d *Device) SetMetrics(r *obs.Registry) {
	d.met = deviceMetrics{
		snooped:          r.Counter("memometer.snooped"),
		accepted:         r.Counter("memometer.accepted"),
		acceptedAccesses: r.Counter("memometer.accepted_accesses"),
		swaps:            r.Counter("memometer.swaps"),
		overruns:         r.Counter("memometer.overruns"),
		pending:          r.Gauge("memometer.pending"),
	}
}

// New returns an unconfigured device.
func New() *Device { return &Device{} }

// Configure programs the control registers and resets monitoring state.
// It mirrors the secure core writing Control Reg 1/2 in Fig. 4.
func (d *Device) Configure(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	active, err := heatmap.New(cfg.Region)
	if err != nil {
		return err
	}
	shadow, err := heatmap.New(cfg.Region)
	if err != nil {
		return err
	}
	d.cfg = cfg
	d.configured = true
	d.active = active
	d.shadow = shadow
	d.pending = nil
	d.started = 0
	d.lastTime = 0
	d.stats = Stats{}
	return nil
}

// Stats returns a copy of the activity counters.
func (d *Device) Stats() Stats { return d.stats }

// advanceTo rolls the device clock forward to t, closing any interval
// boundaries crossed on the way. Each boundary swaps the double buffer:
// the filled memory becomes the pending MHM for the secure core and the
// other memory starts recording. If the pending slot is still occupied
// (analysis overran the interval), the older MHM is dropped and counted
// as an overrun, as real fixed-size hardware would.
//
//mhm:hotpath
func (d *Device) advanceTo(t int64) {
	for t-d.started >= d.cfg.IntervalMicros {
		boundary := d.started + d.cfg.IntervalMicros
		d.active.Start = d.started
		d.active.End = boundary

		if d.pending != nil {
			// Secure core never collected the previous MHM.
			d.stats.Overruns++
			d.met.overruns.Inc()
			// Reclaim the stale buffer as the new shadow.
			d.pending.Reset()
			d.shadow = d.pending
		}
		d.pending = d.active
		d.shadow.Reset()
		d.active = d.shadow
		d.shadow = nil // exactly one of shadow/pending holds the spare
		d.started = boundary
		d.stats.Intervals++
		d.met.swaps.Inc()
		d.met.pending.Set(1)
	}
	d.lastTime = t
}

// Tick informs the device of the current simulation time without a bus
// event, so interval boundaries fire during quiet periods.
//
//mhm:hotpath
func (d *Device) Tick(t int64) error {
	if !d.configured {
		return ErrNotConfigured
	}
	if t < d.lastTime {
		//mhmlint:ignore hotpath cold error path; a malformed stream already aborts the run
		return fmt.Errorf("memometer: time went backwards (%d < %d): %w", t, d.lastTime, ErrConfig)
	}
	d.advanceTo(t)
	return nil
}

// Snoop observes a single fetch at addr at time t.
//
//mhm:hotpath
//mhmlint:ignore deadapi the per-event reference TestSnoopBatchEquivalentToPerEvent checks SnoopBatch against
func (d *Device) Snoop(t int64, addr uint64) error {
	return d.SnoopBurst(t, addr, 1)
}

// SnoopBurst observes a burst of count fetches starting at addr. The
// synthetic kernel emits function-level bursts; recording them is
// equivalent to count unit snoops for counter histograms.
//
//mhm:hotpath
func (d *Device) SnoopBurst(t int64, addr uint64, count uint32) error {
	if !d.configured {
		return ErrNotConfigured
	}
	if t < d.lastTime {
		//mhmlint:ignore hotpath cold error path; a malformed stream already aborts the run
		return fmt.Errorf("memometer: time went backwards (%d < %d): %w", t, d.lastTime, ErrConfig)
	}
	d.advanceTo(t)
	d.stats.Snooped++
	d.met.snooped.Inc()
	if count == 0 {
		return nil
	}
	if d.active.Record(addr, count) {
		d.stats.Accepted++
		d.stats.AcceptedAccesses += uint64(count)
		d.met.accepted.Inc()
		d.met.acceptedAccesses.Add(uint64(count))
	}
	return nil
}

// SnoopBatch observes a time-ordered batch of bus events, the ingest
// unit of the batched trace path (trace.Reader.ReadBatch). It stops as
// soon as an event completes an MHM — before the following event is
// fed — so the caller can Collect the pending map and resubmit the
// remainder, preserving the drain-as-you-go overrun semantics of
// per-event feeding. It returns the number of events consumed; on error
// the failing event is not counted.
//
//mhm:hotpath
func (d *Device) SnoopBatch(events []trace.Access) (int, error) {
	for i := range events {
		a := &events[i]
		if err := d.SnoopBurst(a.Time, a.Addr, a.Count); err != nil {
			return i, err
		}
		if d.pending != nil {
			return i + 1, nil
		}
	}
	return len(events), nil
}

// HasPending reports whether a completed MHM awaits collection.
func (d *Device) HasPending() bool { return d.pending != nil }

// Collect hands the completed MHM to the secure core and frees the
// on-chip memory for the next swap. The returned heat map is a clone
// the caller owns; CollectSparse is the route that copies no dense map.
func (d *Device) Collect() (*heatmap.HeatMap, error) {
	if !d.configured {
		return nil, ErrNotConfigured
	}
	if d.pending == nil {
		return nil, ErrNotReady
	}
	out := d.pending.Clone()
	// The analyzed on-chip memory is reset and becomes the spare buffer,
	// per the paper's timing diagram.
	d.pending.Reset()
	d.shadow = d.pending
	d.pending = nil
	d.met.pending.Set(0)
	return out, nil
}

// CollectSparse hands the completed MHM to the secure core in
// run-length form, reusing dst's backing arrays, and frees the
// on-chip memory for the next swap — the zero-copy variant of Collect
// for the fused ingest→snoop→score path: no dense clone is
// materialized, and with a warmed dst the steady state is
// allocation-free.
func (d *Device) CollectSparse(dst *heatmap.Sparse) error {
	if !d.configured {
		return ErrNotConfigured
	}
	if d.pending == nil {
		return ErrNotReady
	}
	d.pending.Sparsify(dst)
	d.pending.Reset()
	d.shadow = d.pending
	d.pending = nil
	d.met.pending.Set(0)
	return nil
}
