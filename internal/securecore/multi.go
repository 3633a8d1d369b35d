package securecore

import (
	"fmt"

	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/kernelmap"
	"github.com/memheatmap/mhm/internal/memometer"
	"github.com/memheatmap/mhm/internal/rtos"
	"github.com/memheatmap/mhm/internal/sim"
	"github.com/memheatmap/mhm/internal/trace"
)

// MultiSession monitors several memory regions from one bus: a single
// monitored core whose traffic fans out to one Memometer per region.
// This lifts the paper's limitation (iv) — "our detection mechanism
// cannot detect anomalies that access memory segments outside the region
// under monitoring" — by adding regions (e.g. the module area where LKM
// rootkit hooks execute) next to the kernel .text watch.
type MultiSession struct {
	Engine    *sim.Engine
	Scheduler *rtos.Scheduler
	Monitor   *Monitor
	Image     *kernelmap.Image

	devices []*memometer.Device
	maps    [][]*heatmap.HeatMap
}

// NewMultiSession builds a session snooping the same bus into one
// Memometer per region.
func NewMultiSession(img *kernelmap.Image, tasks []*rtos.Task, cfg SessionConfig, regions []heatmap.Def) (*MultiSession, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("securecore: no regions: %w", ErrMonitor)
	}
	if cfg.IntervalMicros == 0 {
		cfg.IntervalMicros = 10000
	}
	if cfg.TickPeriod == 0 {
		cfg.TickPeriod = 1000
	}
	s := &MultiSession{Engine: sim.NewEngine(), Image: img, maps: make([][]*heatmap.HeatMap, len(regions))}
	for i, region := range regions {
		dev := memometer.New()
		if err := dev.Configure(memometer.Config{
			Region:         region,
			IntervalMicros: cfg.IntervalMicros,
		}); err != nil {
			return nil, fmt.Errorf("securecore: region %d: %w", i, err)
		}
		s.devices = append(s.devices, dev)
	}
	mon, err := NewPortMonitor(img, cfg.NoiseSeed, func(a trace.Access) error {
		for i, dev := range s.devices {
			if err := dev.SnoopBurst(a.Time, a.Addr, a.Count); err != nil {
				return err
			}
			for dev.HasPending() {
				hm, err := dev.Collect()
				if err != nil {
					return err
				}
				s.maps[i] = append(s.maps[i], hm)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.Monitor = mon
	sched, err := rtos.NewScheduler(s.Engine, rtos.Config{TickPeriod: cfg.TickPeriod}, tasks, mon)
	if err != nil {
		return nil, err
	}
	s.Scheduler = sched
	return s, nil
}

// Run advances the simulation and returns per-region MHM series,
// indexed as the regions were passed to NewMultiSession.
func (s *MultiSession) Run(horizon int64) ([][]*heatmap.HeatMap, error) {
	if s.Engine.Now() == 0 {
		if err := s.Scheduler.Start(); err != nil {
			return nil, err
		}
	}
	if _, err := s.Engine.Run(horizon); err != nil {
		return nil, err
	}
	s.Scheduler.FinishIdle()
	if err := s.Monitor.Err(); err != nil {
		return nil, err
	}
	for i, dev := range s.devices {
		if err := dev.Tick(horizon); err != nil {
			return nil, err
		}
		for dev.HasPending() {
			hm, err := dev.Collect()
			if err != nil {
				return nil, err
			}
			s.maps[i] = append(s.maps[i], hm)
		}
	}
	return s.maps, nil
}
