// Package alarm turns the detector's per-interval verdicts into
// operational alarms: a raw anomaly flag flickers (the paper's Figs. 7
// and 10 both show normal-looking intervals inside attack windows), so
// the secure core debounces — an alarm raises after K consecutive
// abnormal intervals and clears after M consecutive normal ones — and
// accounts detection latency against ground truth.
package alarm

import (
	"errors"
	"fmt"

	"github.com/memheatmap/mhm/internal/obs"
)

// ErrConfig wraps invalid runtime parameters.
var ErrConfig = errors.New("alarm: invalid configuration")

// Config tunes the debouncer.
type Config struct {
	// RaiseAfter is the number of consecutive anomalous intervals that
	// raises an alarm (default 2).
	RaiseAfter int
	// ClearAfter is the number of consecutive normal intervals that
	// clears a raised alarm (default 5).
	ClearAfter int
}

func (c *Config) fill() error {
	if c.RaiseAfter == 0 {
		c.RaiseAfter = 2
	}
	if c.ClearAfter == 0 {
		c.ClearAfter = 5
	}
	if c.RaiseAfter < 1 || c.ClearAfter < 1 {
		return fmt.Errorf("alarm: RaiseAfter=%d ClearAfter=%d: %w", c.RaiseAfter, c.ClearAfter, ErrConfig)
	}
	return nil
}

// Event is one alarm transition.
type Event struct {
	// Raised is true for a raise, false for a clear.
	Raised bool
	// Interval is the interval index at which the transition fired; Time
	// is its end time in microseconds.
	Interval int
	Time     int64
}

// Runtime is the stateful debouncer. Feed it one verdict per interval
// in order.
type Runtime struct {
	cfg    Config
	raised bool

	anomStreak, normStreak int
	interval               int
	events                 []Event

	// Observability counters (nil unless Instrument was called).
	raisedC     *obs.Counter
	clearedC    *obs.Counter
	suppressedC *obs.Counter
}

// NewRuntime builds a runtime.
func NewRuntime(cfg Config) (*Runtime, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Runtime{cfg: cfg}, nil
}

// Instrument installs observability counters: alarm.raised and
// alarm.cleared count transitions; alarm.suppressed counts anomalous
// intervals the debouncer absorbed without a transition (below the
// raise streak, or already raised).
func (r *Runtime) Instrument(reg *obs.Registry) {
	r.raisedC = reg.Counter("alarm.raised")
	r.clearedC = reg.Counter("alarm.cleared")
	r.suppressedC = reg.Counter("alarm.suppressed")
}

// Observe consumes one interval's verdict and returns a transition
// event, or nil when the alarm state did not change.
func (r *Runtime) Observe(anomalous bool, endTime int64) *Event {
	idx := r.interval
	r.interval++
	if anomalous {
		r.anomStreak++
		r.normStreak = 0
	} else {
		r.normStreak++
		r.anomStreak = 0
	}
	var ev *Event
	if !r.raised && r.anomStreak >= r.cfg.RaiseAfter {
		r.raised = true
		ev = &Event{Raised: true, Interval: idx, Time: endTime}
	} else if r.raised && r.normStreak >= r.cfg.ClearAfter {
		r.raised = false
		ev = &Event{Raised: false, Interval: idx, Time: endTime}
	}
	if ev != nil {
		r.events = append(r.events, *ev)
		if ev.Raised {
			r.raisedC.Inc()
		} else {
			r.clearedC.Inc()
		}
	} else if anomalous {
		r.suppressedC.Inc()
	}
	return ev
}

// Events returns every transition so far.
func (r *Runtime) Events() []Event {
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Report summarizes a finished run against ground truth.
type Report struct {
	// Raises and Clears count transitions.
	Raises, Clears int
	// FalseRaises counts raises strictly before the event interval
	// (ground truth), -1 when no truth was given.
	FalseRaises int
	// DetectionLatencyIntervals is the gap between the ground-truth
	// event interval and the first raise at or after it; -1 if never
	// detected or no truth given.
	DetectionLatencyIntervals int
}

// Analyze summarizes the transitions against a ground-truth event
// interval (pass a negative eventInterval when the run is clean).
func (r *Runtime) Analyze(eventInterval int) Report {
	rep := Report{FalseRaises: -1, DetectionLatencyIntervals: -1}
	if eventInterval >= 0 {
		rep.FalseRaises = 0
	}
	for _, ev := range r.events {
		if ev.Raised {
			rep.Raises++
			if eventInterval >= 0 {
				if ev.Interval < eventInterval {
					rep.FalseRaises++
				} else if rep.DetectionLatencyIntervals < 0 {
					rep.DetectionLatencyIntervals = ev.Interval - eventInterval
				}
			}
		} else {
			rep.Clears++
		}
	}
	return rep
}
