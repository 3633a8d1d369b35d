// The per-stream model registry: which trained model scores which
// stream, and when a refreshed model takes over. Models are immutable
// once built (copy-on-write: a refresh builds a new *Model and swaps
// the pointer), so readers never see a half-updated model and a swap
// never drops or reorders submissions — it only changes which engine
// scores the next interval.
//
// Swaps are scheduled against the stream's own interval index, not the
// wall clock: SwapAt(stream, k, m) means "intervals k and later score
// under m". Because exactly one shard worker assigns a stream's indices
// (the routing affinity contract), the boundary is exact — the fleet's
// alarms under a concurrent swap are bit-identical to a serial run that
// applies the same swap at the same boundary, which is what the race
// stress test pins.
package fleet

import (
	"errors"
	"fmt"
	"sync"

	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/score"
)

// ErrSwapPending reports a SwapAt scheduled while a different boundary
// is still pending for the stream. Exactly one swap may be in flight
// per stream: stacking a second one behind it made the applied model a
// function of scheduling order relative to the stream's progress, which
// raced with the refresh loop's own retries. Callers that want
// latest-wins semantics use SwapAtCoalesce.
var ErrSwapPending = errors.New("fleet: swap already pending for stream")

// Model is one immutable scoring configuration: the fused engine and
// the calibrated decision threshold. Version identifies the model in
// traces and tests; refreshes should increment it.
type Model struct {
	eng     *score.Engine
	theta   float64
	version int
}

// NewModel derives a fleet model from a trained detector at the given
// threshold quantile (0 selects the default θ1 = 0.01).
func NewModel(det *core.Detector, quantile float64, version int) (*Model, error) {
	if det == nil {
		return nil, fmt.Errorf("fleet: nil detector: %w", ErrConfig)
	}
	if quantile == 0 {
		quantile = 0.01
	}
	theta, err := det.Threshold(quantile)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	eng, err := det.ScoreEngine()
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return &Model{eng: eng, theta: theta, version: version}, nil
}

// Engine exposes the model's fused scoring engine.
func (m *Model) Engine() *score.Engine { return m.eng }

// scheduledSwap is one pending hot swap: from interval `at` onward the
// stream scores under m.
type scheduledSwap struct {
	at int
	m  *Model
}

// regSlot is one stream's registry entry. The mutex fences the owning
// worker's reads against concurrent swap scheduling; it is held only
// for pointer manipulation, never across scoring. At most one swap is
// pending per stream (hasPending): SwapAt rejects a second boundary,
// SwapAtCoalesce replaces it.
type regSlot struct {
	mu         sync.Mutex
	cur        *Model
	hasPending bool
	pending    scheduledSwap
}

// Registry holds the per-stream copy-on-write model pointers.
type Registry struct {
	slots []regSlot
}

// NewRegistry builds a registry serving `streams` streams, all starting
// on the base model.
func NewRegistry(streams int, base *Model) (*Registry, error) {
	if streams <= 0 {
		return nil, fmt.Errorf("fleet: %d streams: %w", streams, ErrConfig)
	}
	if base == nil {
		return nil, fmt.Errorf("fleet: nil base model: %w", ErrConfig)
	}
	r := &Registry{slots: make([]regSlot, streams)}
	for i := range r.slots {
		r.slots[i].cur = base
	}
	return r, nil
}

// SwapAt schedules a hot swap at an exact interval boundary: intervals
// with per-stream index >= at score under m. Scheduling the same
// boundary twice replaces the earlier model (a deterministic coalesce);
// scheduling a different boundary while one is still pending returns
// ErrSwapPending — see SwapAtCoalesce for latest-wins replacement.
// Boundaries the stream has already passed apply to its very next
// interval.
func (r *Registry) SwapAt(stream, at int, m *Model) error {
	return r.swapAt(stream, at, m, false)
}

// SwapAtCoalesce is SwapAt with latest-wins semantics: a pending swap
// for the stream, whatever its boundary, is replaced by this one. The
// refresh loop uses it so a slow stream that never reached the previous
// generation's boundary jumps straight to the newest model instead of
// wedging the schedule.
func (r *Registry) SwapAtCoalesce(stream, at int, m *Model) error {
	return r.swapAt(stream, at, m, true)
}

func (r *Registry) swapAt(stream, at int, m *Model, coalesce bool) error {
	if err := r.check(stream, m); err != nil {
		return err
	}
	if at < 0 {
		return fmt.Errorf("fleet: swap at interval %d: %w", at, ErrConfig)
	}
	sl := &r.slots[stream]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.hasPending && sl.pending.at != at && !coalesce {
		return fmt.Errorf("fleet: stream %d has a swap pending at interval %d, refusing boundary %d: %w",
			stream, sl.pending.at, at, ErrSwapPending)
	}
	sl.pending = scheduledSwap{at: at, m: m}
	sl.hasPending = true
	return nil
}

// SwapAllAtCoalesce schedules the same boundary swap for every stream —
// the fleet-wide model refresh — with SwapAtCoalesce's latest-wins
// per-stream semantics.
func (r *Registry) SwapAllAtCoalesce(at int, m *Model) error {
	for s := range r.slots {
		if err := r.SwapAtCoalesce(s, at, m); err != nil {
			return err
		}
	}
	return nil
}

// ModelFor resolves the model scoring the stream's interval `idx`,
// applying any scheduled swaps whose boundary has arrived. It must be
// called with the stream's indices in ascending order by the single
// owner that assigns them (the shard worker, or the simulator's
// sequential decision pass); under that contract swap boundaries are
// exact and the resolution is deterministic.
//
//mhm:deterministic
func (r *Registry) ModelFor(stream, idx int) *Model {
	sl := &r.slots[stream]
	sl.mu.Lock()
	if sl.hasPending && sl.pending.at <= idx {
		sl.cur = sl.pending.m
		sl.hasPending = false
	}
	m := sl.cur
	sl.mu.Unlock()
	return m
}

func (r *Registry) check(stream int, m *Model) error {
	if stream < 0 || stream >= len(r.slots) {
		return fmt.Errorf("fleet: stream %d out of [0,%d): %w", stream, len(r.slots), ErrConfig)
	}
	if m == nil {
		return fmt.Errorf("fleet: nil model: %w", ErrConfig)
	}
	return nil
}
