package memometer

import (
	"container/heap"
	"errors"
	"fmt"

	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/trace"
)

// ErrPort wraps SMP port misuse.
var ErrPort = errors.New("memometer: invalid SMP port usage")

// SMP is the §5.5 symmetric-multiprocessing variant of the Memometer:
// one set of MHM memories (a single Device) fed by replicated per-core
// snoop/filter ports. Each port receives a monotone event stream from
// its core; the merge front-end releases events to the device only once
// every open port has advanced past them, preserving global time order.
type SMP struct {
	dev     *Device
	ports   []*Port
	pending mergeHeap
	collect func(*heatmap.HeatMap) error
}

// Port is one core's snoop interface into the shared device.
type Port struct {
	owner  *SMP
	index  int
	last   int64
	closed bool
}

type mergeEvent struct {
	acc  trace.Access
	seq  uint64
	port int
}

type mergeHeap struct {
	events  []mergeEvent
	nextSeq uint64
}

func (h mergeHeap) Len() int { return len(h.events) }
func (h mergeHeap) Less(i, j int) bool {
	if h.events[i].acc.Time != h.events[j].acc.Time {
		return h.events[i].acc.Time < h.events[j].acc.Time
	}
	return h.events[i].seq < h.events[j].seq
}
func (h mergeHeap) Swap(i, j int) { h.events[i], h.events[j] = h.events[j], h.events[i] }
func (h *mergeHeap) Push(x any)   { h.events = append(h.events, x.(mergeEvent)) }
func (h *mergeHeap) Pop() any {
	old := h.events
	n := len(old)
	e := old[n-1]
	h.events = old[:n-1]
	return e
}

// NewSMP builds a shared device with n snoop ports. Every completed MHM
// is handed to collect immediately — the merge can cross several
// interval boundaries in one release, and the device holds only one
// pending MHM at a time.
func NewSMP(cfg Config, n int, collect func(*heatmap.HeatMap) error) (*SMP, error) {
	if n <= 0 {
		return nil, fmt.Errorf("memometer: %d SMP ports: %w", n, ErrConfig)
	}
	if collect == nil {
		collect = func(*heatmap.HeatMap) error { return nil }
	}
	dev := New()
	if err := dev.Configure(cfg); err != nil {
		return nil, err
	}
	s := &SMP{dev: dev, collect: collect}
	for i := 0; i < n; i++ {
		s.ports = append(s.ports, &Port{owner: s, index: i})
	}
	return s, nil
}

// drain hands completed MHMs to the collector.
func (s *SMP) drain() error {
	for s.dev.HasPending() {
		hm, err := s.dev.Collect()
		if err != nil {
			return err
		}
		if err := s.collect(hm); err != nil {
			return err
		}
	}
	return nil
}

// Device returns the shared Memometer (for stats and Collect).
//
//mhmlint:ignore deadapi the SMP session tests read the merged device's overrun and snoop counters through it
func (s *SMP) Device() *Device { return s.dev }

// Port returns snoop port i.
func (s *SMP) Port(i int) (*Port, error) {
	if i < 0 || i >= len(s.ports) {
		return nil, fmt.Errorf("memometer: port %d of %d: %w", i, len(s.ports), ErrPort)
	}
	return s.ports[i], nil
}

// SnoopBurst feeds one event into the port. Events on a port must be
// time-ordered; the merge releases them to the device once safe.
func (p *Port) SnoopBurst(t int64, addr uint64, count uint32) error {
	if p.closed {
		return fmt.Errorf("memometer: port %d is closed: %w", p.index, ErrPort)
	}
	if t < p.last {
		return fmt.Errorf("memometer: port %d time went backwards (%d < %d): %w",
			p.index, t, p.last, ErrConfig)
	}
	p.last = t
	s := p.owner
	s.pending.nextSeq++
	heap.Push(&s.pending, mergeEvent{
		acc:  trace.Access{Time: t, Addr: addr, Count: count},
		seq:  s.pending.nextSeq,
		port: p.index,
	})
	return s.pump()
}

// Close marks the port as finished; remaining merges ignore it.
func (p *Port) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	return p.owner.pump()
}

// watermark returns the merge-safe time: the minimum last-seen time over
// open ports, or the maximum possible when all ports are closed.
func (s *SMP) watermark() int64 {
	w := int64(1)<<62 - 1
	open := false
	for _, p := range s.ports {
		if p.closed {
			continue
		}
		open = true
		if p.last < w {
			w = p.last
		}
	}
	if !open {
		return int64(1)<<62 - 1
	}
	return w
}

// pump releases every buffered event at or before the watermark into the
// shared device, in global time order.
func (s *SMP) pump() error {
	w := s.watermark()
	for s.pending.Len() > 0 && s.pending.events[0].acc.Time <= w {
		e := heap.Pop(&s.pending).(mergeEvent)
		if err := s.dev.SnoopBurst(e.acc.Time, e.acc.Addr, e.acc.Count); err != nil {
			return err
		}
		if err := s.drain(); err != nil {
			return err
		}
	}
	return nil
}

// Finish closes all ports, flushes the merge, and advances the shared
// device clock to t so the final interval completes. The session is
// done after Finish; ports reject further traffic.
func (s *SMP) Finish(t int64) error {
	for _, p := range s.ports {
		p.closed = true
	}
	if err := s.pump(); err != nil {
		return err
	}
	if err := s.dev.Tick(t); err != nil {
		return err
	}
	return s.drain()
}
