// Package sim provides the discrete-event simulation engine underneath
// the monitored core: a microsecond-resolution clock and a time-ordered
// event queue. The RTOS scheduler, workload models and monitoring
// harness all run on top of it.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
)

// ErrPast is returned when an event is scheduled before the current time.
var ErrPast = errors.New("sim: event scheduled in the past")

// Handler is invoked when its event fires; now is the simulation time.
type Handler func(now int64)

type event struct {
	time int64
	seq  uint64 // tie-break: FIFO among same-time events
	fn   Handler
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event simulator.
type Engine struct {
	now   int64
	seq   uint64
	queue eventQueue
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time in microseconds.
func (e *Engine) Now() int64 { return e.now }

// At schedules fn to run at absolute time t.
func (e *Engine) At(t int64, fn Handler) error {
	if t < e.now {
		return fmt.Errorf("sim: At(%d) with clock at %d: %w", t, e.now, ErrPast)
	}
	e.seq++
	heap.Push(&e.queue, &event{time: t, seq: e.seq, fn: fn})
	return nil
}

// After schedules fn to run delay microseconds from now.
func (e *Engine) After(delay int64, fn Handler) error {
	if delay < 0 {
		return fmt.Errorf("sim: After(%d): %w", delay, ErrPast)
	}
	return e.At(e.now+delay, fn)
}

// Run executes events in time order until the queue empties or the
// clock passes horizon (exclusive). It returns the number of events
// executed. Events scheduled at or after horizon stay queued.
func (e *Engine) Run(horizon int64) (int, error) {
	executed := 0
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.time >= horizon {
			// Park the clock at the horizon so a subsequent Run resumes
			// cleanly.
			e.now = horizon
			return executed, nil
		}
		heap.Pop(&e.queue)
		e.now = next.time
		next.fn(next.time)
		executed++
	}
	if e.now < horizon {
		e.now = horizon
	}
	return executed, nil
}
