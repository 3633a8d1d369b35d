// Obs-driven shard autoscaling. The autoscaler closes the loop between
// the fleet's observability layer and its topology: the controller
// publishes queue occupancy and interval-latency gauges each poll
// window, and the autoscaler turns those gauges into a target shard
// count with hysteresis and a cooldown, so a transient spike does not
// thrash the shard set. The decision is a pure function of (virtual
// time, gauge values, previous decision time) — the simulator replays
// it bit-identically.
package fleet

import (
	"fmt"

	"github.com/memheatmap/mhm/internal/obs"
)

// ScaleConfig tunes the autoscaler.
type ScaleConfig struct {
	// MinShards and MaxShards clamp the topology (defaults 1 and 64).
	MinShards, MaxShards int
	// HighQueueFrac scales up when the fullest shard queue exceeds this
	// fraction of capacity (default 0.5); LowQueueFrac scales down when
	// it falls below (default 0.1). Hysteresis requires Low < High.
	HighQueueFrac, LowQueueFrac float64
	// HighLatencyMicros scales up when the window's p99 interval latency
	// exceeds it (default 4× LowLatencyMicros); LowLatencyMicros gates
	// scale-down (default 1000µs). Both in virtual microseconds.
	HighLatencyMicros, LowLatencyMicros float64
	// CooldownMicros is the minimum virtual time between resizes
	// (default 50_000µs = 5 monitoring intervals).
	CooldownMicros int64
}

func (c *ScaleConfig) fill() error {
	if c.MinShards == 0 {
		c.MinShards = 1
	}
	if c.MaxShards == 0 {
		c.MaxShards = 64
	}
	if c.HighQueueFrac == 0 {
		c.HighQueueFrac = 0.5
	}
	if c.LowQueueFrac == 0 {
		c.LowQueueFrac = 0.1
	}
	if c.LowLatencyMicros == 0 {
		c.LowLatencyMicros = 1000
	}
	if c.HighLatencyMicros == 0 {
		c.HighLatencyMicros = 4 * c.LowLatencyMicros
	}
	if c.CooldownMicros == 0 {
		c.CooldownMicros = 50_000
	}
	if c.MinShards < 1 || c.MaxShards < c.MinShards {
		return fmt.Errorf("fleet: shard bounds [%d,%d]: %w", c.MinShards, c.MaxShards, ErrConfig)
	}
	if c.LowQueueFrac >= c.HighQueueFrac || c.LowLatencyMicros >= c.HighLatencyMicros {
		return fmt.Errorf("fleet: autoscale hysteresis bands inverted: %w", ErrConfig)
	}
	return nil
}

// Autoscaler derives shard-count decisions from the fleet gauges. It is
// not internally synchronized: one control goroutine (or the simulator)
// owns it.
type Autoscaler struct {
	cfg        ScaleConfig
	queueFrac  *obs.Gauge // fleet.queue_frac_max
	p99Latency *obs.Gauge // fleet.p99_interval_micros
	lastResize int64
	resized    bool
}

// NewAutoscaler builds an autoscaler reading the fleet gauges from reg
// (a nil registry yields nil gauges, which read as 0 — the autoscaler
// then never scales, matching "no observability, no decisions").
func NewAutoscaler(cfg ScaleConfig, reg *obs.Registry) (*Autoscaler, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Autoscaler{
		cfg:        cfg,
		queueFrac:  reg.Gauge("fleet.queue_frac_max"),
		p99Latency: reg.Gauge("fleet.p99_interval_micros"),
	}, nil
}

// Decide returns the target shard count given the current topology and
// the gauge values at virtual time now, with "" or a reason string
// explaining the change. A target equal to cur means no resize. Scale
// up grows by half the current count, scale down shrinks by a quarter —
// fast reaction to overload, gentle decay back.
//
//mhm:deterministic
func (a *Autoscaler) Decide(now int64, cur int) (int, string) {
	if a.resized && now-a.lastResize < a.cfg.CooldownMicros {
		return cur, ""
	}
	qf := a.queueFrac.Value()
	p99 := a.p99Latency.Value()
	target := cur
	reason := ""
	switch {
	case qf >= a.cfg.HighQueueFrac || p99 >= a.cfg.HighLatencyMicros:
		step := cur / 2
		if step < 1 {
			step = 1
		}
		target = cur + step
		reason = fmt.Sprintf("scale-up queue_frac=%.3f p99=%.1f", qf, p99)
	case qf <= a.cfg.LowQueueFrac && p99 <= a.cfg.LowLatencyMicros:
		step := cur / 4
		if step < 1 {
			step = 1
		}
		target = cur - step
		reason = fmt.Sprintf("scale-down queue_frac=%.3f p99=%.1f", qf, p99)
	}
	if target > a.cfg.MaxShards {
		target = a.cfg.MaxShards
	}
	if target < a.cfg.MinShards {
		target = a.cfg.MinShards
	}
	if target == cur {
		return cur, ""
	}
	a.lastResize = now
	a.resized = true
	return target, reason
}
