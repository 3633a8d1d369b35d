// Package obs is a dependency-free metrics subsystem for the online
// detection loop: atomic counters, gauges and fixed-bucket latency
// histograms behind a named registry. The paper's deployment model
// (§3.1, §5.4) rests on a timing argument — analysis of interval i must
// finish while interval i+1 is recorded — and a security monitor must
// account for its own runtime cost; these metrics make that budget
// observable per stage instead of only as an aggregate overrun count.
//
// Design rules:
//
//   - The hot path (Counter.Add, Gauge.Set, Histogram.Observe,
//     Stopwatch) is lock-free, allocation-free and built on sync/atomic
//     only. A testing.AllocsPerRun guard enforces the no-allocation
//     property.
//   - Every type is nil-safe: a nil *Registry hands out nil metrics,
//     and every operation on a nil metric is a single-predicate no-op,
//     so uninstrumented callers pay one branch and nothing else.
//   - Snapshots are point-in-time but not atomic across metrics: a
//     snapshot taken during concurrent Observe calls may see a count
//     that is ahead of the bucket sums and of the sum, never behind
//     them. Observe bumps the count before the bucket and the sum, and
//     Snapshot loads the buckets and the sum before the count. That is
//     acceptable for monitoring and keeps the write side wait-free.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyBuckets is the default bucket layout for stage latencies in
// microseconds, spanning sub-µs projection steps up to the paper's
// 10 ms monitoring interval and beyond.
var LatencyBuckets = []float64{
	1, 2, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10000, 25000, 50000, 100000,
}

// Counter is a monotonically increasing event count.
//
//mhm:nilsafe
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. No-op on a nil counter.
//
//mhm:hotpath
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil counter.
//
//mhm:hotpath
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric (e.g. a current depth or level).
//
//mhm:nilsafe
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil gauge.
//
//mhm:hotpath
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds d to the gauge. No-op on a nil gauge.
//
//mhm:hotpath
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+d)) {
			return
		}
	}
}

// Value returns the stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets defined by a
// sorted slice of upper bounds (an implicit +Inf overflow bucket
// catches the rest). Count, sum, min and max are tracked alongside.
//
//mhm:nilsafe
type Histogram struct {
	bounds  []float64 // immutable after construction
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
	minBits atomic.Uint64
	maxBits atomic.Uint64
}

// newHistogram builds a histogram over a defensive copy of bounds.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{
		bounds:  b,
		buckets: make([]atomic.Uint64, len(b)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// atomicFoldFloat folds v into the float64 stored in bits using keep to
// decide whether the incumbent survives.
//
//mhm:hotpath
func atomicFoldFloat(bits *atomic.Uint64, v float64, keep func(cur, v float64) bool) {
	for {
		old := bits.Load()
		cur := math.Float64frombits(old)
		if keep(cur, v) {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Observe records one value. Lock-free and allocation-free; no-op on a
// nil histogram.
//
//mhm:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Write order is the other half of Snapshot's read order: min/max
	// before count, so a reader that sees count > 0 sees finite extremes;
	// count before the bucket and the sum, so the bucket sums and the
	// sum never run ahead of the count a reader loads after them.
	atomicFoldFloat(&h.minBits, v, func(cur, v float64) bool { return cur <= v })
	atomicFoldFloat(&h.maxBits, v, func(cur, v float64) bool { return cur >= v })
	h.count.Add(1)
	// First bucket whose bound is >= v; len(bounds) selects overflow.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	for {
		old := h.sumBits.Load()
		cur := math.Float64frombits(old)
		if h.sumBits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			break
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Start begins timing a stage against this histogram. On a nil
// histogram the returned stopwatch is inert and Start does not even
// read the clock, so uninstrumented callers pay one predicate.
func (h *Histogram) Start() Stopwatch {
	if h == nil {
		return Stopwatch{}
	}
	return Stopwatch{h: h, start: time.Now()}
}

// Time runs f and records its duration in microseconds.
func (h *Histogram) Time(f func()) {
	sw := h.Start()
	f()
	sw.Stop()
}

// Stopwatch scopes one latency measurement; obtain it from
// Histogram.Start and call Stop exactly once.
type Stopwatch struct {
	h     *Histogram
	start time.Time
}

// Stop records the elapsed time in microseconds and returns it. A
// stopwatch from a nil histogram returns 0 and records nothing.
func (s Stopwatch) Stop() float64 {
	if s.h == nil {
		return 0
	}
	micros := float64(time.Since(s.start).Nanoseconds()) / 1e3
	s.h.Observe(micros)
	return micros
}

// Handoff stops this stopwatch and starts one on next from a single
// clock reading, so adjacent stages are timed without a gap and with
// one fewer time.Now than Stop-then-Start. Either side may be nil.
func (s Stopwatch) Handoff(next *Histogram) Stopwatch {
	if s.h == nil && next == nil {
		return Stopwatch{}
	}
	now := time.Now()
	if s.h != nil {
		s.h.Observe(float64(now.Sub(s.start).Nanoseconds()) / 1e3)
	}
	if next == nil {
		return Stopwatch{}
	}
	return Stopwatch{h: next, start: now}
}

// Registry is a named collection of metrics. The zero value is not
// usable; call NewRegistry. A nil *Registry is valid and hands out nil
// metrics, making instrumentation free when disabled.
//
//mhm:nilsafe
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (later calls reuse the existing buckets
// regardless of bounds). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		if len(bounds) == 0 {
			bounds = LatencyBuckets
		}
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}
