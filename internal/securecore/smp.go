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

// SMPSession is the §5.5 symmetric-multiprocessing variant of Session:
// several monitored cores under partitioned scheduling (one scheduler
// per core, disjoint task sets) feed one shared set of MHM memories
// through replicated snoop ports. The kernel is shared, so one heat map
// aggregates every core's kernel activity.
type SMPSession struct {
	Engine     *sim.Engine
	Schedulers []*rtos.Scheduler
	Monitors   []*Monitor
	Image      *kernelmap.Image

	smp  *memometer.SMP
	maps []*heatmap.HeatMap
}

// NewSMPSession builds a multi-core session; coreTasks[i] is core i's
// task set (task names must be globally unique).
func NewSMPSession(img *kernelmap.Image, coreTasks [][]*rtos.Task, cfg SessionConfig) (*SMPSession, error) {
	if len(coreTasks) == 0 {
		return nil, fmt.Errorf("securecore: no cores: %w", ErrMonitor)
	}
	if cfg.IntervalMicros == 0 {
		cfg.IntervalMicros = 10000
	}
	if cfg.TickPeriod == 0 {
		cfg.TickPeriod = 1000
	}
	if cfg.Region == (heatmap.Def{}) {
		cfg.Region = heatmap.Def{AddrBase: img.Base, Size: img.Size, Gran: 2048}
	}
	seen := map[string]bool{}
	for _, tasks := range coreTasks {
		for _, t := range tasks {
			if seen[t.Name] {
				return nil, fmt.Errorf("securecore: task %q on multiple cores: %w", t.Name, ErrMonitor)
			}
			seen[t.Name] = true
		}
	}

	s := &SMPSession{Engine: sim.NewEngine(), Image: img}
	smp, err := memometer.NewSMP(memometer.Config{
		Region:         cfg.Region,
		IntervalMicros: cfg.IntervalMicros,
	}, len(coreTasks), func(hm *heatmap.HeatMap) error {
		s.maps = append(s.maps, hm)
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.smp = smp

	for i, tasks := range coreTasks {
		port, err := smp.Port(i)
		if err != nil {
			return nil, err
		}
		mon, err := NewPortMonitor(img, cfg.NoiseSeed+int64(i)*7919, func(a trace.Access) error {
			return port.SnoopBurst(a.Time, a.Addr, a.Count)
		})
		if err != nil {
			return nil, err
		}
		sched, err := rtos.NewScheduler(s.Engine, rtos.Config{TickPeriod: cfg.TickPeriod}, tasks, mon)
		if err != nil {
			return nil, fmt.Errorf("securecore: core %d: %w", i, err)
		}
		s.Monitors = append(s.Monitors, mon)
		s.Schedulers = append(s.Schedulers, sched)
	}
	return s, nil
}

// Run starts every core's scheduler, advances the simulation to the
// horizon, and finalizes the merge, returning all completed MHMs.
// Unlike Session.Run it is single-shot: the SMP merge closes its ports
// at the horizon.
func (s *SMPSession) Run(horizon int64) ([]*heatmap.HeatMap, error) {
	if s.Engine.Now() == 0 {
		for i, sched := range s.Schedulers {
			if err := sched.Start(); err != nil {
				return nil, fmt.Errorf("securecore: core %d start: %w", i, err)
			}
		}
	}
	if _, err := s.Engine.Run(horizon); err != nil {
		return nil, err
	}
	for i, sched := range s.Schedulers {
		sched.FinishIdle()
		if err := s.Monitors[i].Err(); err != nil {
			return nil, err
		}
	}
	if err := s.smp.Finish(horizon); err != nil {
		return nil, err
	}
	return s.maps, nil
}
