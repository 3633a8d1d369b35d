// Snapshot export: the registry serializes to a frozen JSON schema
// (guarded by a golden test) consumed by cmd/mhmreport, plus an
// expvar-style text form for eyeballing. Map keys are emitted sorted
// (encoding/json's behaviour), so equal registries produce identical
// bytes.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// BucketSnapshot is one histogram bucket: Count observations with
// value <= LE. The implicit +Inf bucket is reported separately as
// HistogramSnapshot.Overflow so the JSON never contains non-finite
// numbers.
type BucketSnapshot struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistogramSnapshot is the frozen export form of a histogram. Min and
// Max are 0 when Count is 0.
type HistogramSnapshot struct {
	Count    uint64           `json:"count"`
	Sum      float64          `json:"sum"`
	Min      float64          `json:"min"`
	Max      float64          `json:"max"`
	Buckets  []BucketSnapshot `json:"buckets"`
	Overflow uint64           `json:"overflow"`
}

// Quantile estimates the q-quantile (0 < q < 1) by linear
// interpolation inside the covering bucket; observations in the
// overflow bucket resolve to Max. The rank is taken over the bucket
// counts rather than Count: a snapshot taken during concurrent Observe
// calls may carry a Count ahead of the buckets, and ranking against it
// would push the estimate to Max.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	total := h.Overflow
	for _, b := range h.Buckets {
		total += b.Count
	}
	target := q * float64(total)
	acc := 0.0
	lo := h.Min
	for _, b := range h.Buckets {
		if b.Count == 0 {
			if b.LE > lo {
				lo = math.Min(b.LE, h.Max)
			}
			continue
		}
		hi := math.Min(b.LE, h.Max)
		if lo > hi {
			lo = hi
		}
		if acc+float64(b.Count) >= target {
			frac := (target - acc) / float64(b.Count)
			return lo + frac*(hi-lo)
		}
		acc += float64(b.Count)
		lo = hi
	}
	return h.Max
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state. Safe to call
// concurrently with metric updates; a nil registry yields an empty
// (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Snapshot copies one histogram's current state into the frozen export
// form. Safe to call concurrently with Observe; a nil histogram yields
// an empty snapshot, so read-side consumers stay nil-safe like the
// write side.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	// Read order mirrors Observe's write order (see the package doc):
	// buckets and sum first, then the count, then min/max — so the count
	// is never behind the bucket sums, and a nonzero count comes with
	// finite extremes.
	hs := HistogramSnapshot{Buckets: make([]BucketSnapshot, len(h.bounds))}
	for i, le := range h.bounds {
		hs.Buckets[i] = BucketSnapshot{LE: le, Count: h.buckets[i].Load()}
	}
	hs.Overflow = h.buckets[len(h.bounds)].Load()
	hs.Sum = math.Float64frombits(h.sumBits.Load())
	hs.Count = h.count.Load()
	if hs.Count > 0 {
		hs.Min = math.Float64frombits(h.minBits.Load())
		hs.Max = math.Float64frombits(h.maxBits.Load())
	}
	return hs
}

// WriteJSON writes the snapshot as indented JSON (the frozen schema).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// ParseSnapshot decodes a snapshot produced by WriteJSON.
func ParseSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: decode snapshot: %w", err)
	}
	return s, nil
}

// WriteText writes the snapshot in an expvar-style line form, sorted
// by metric name:
//
//	counter memometer.snooped 1234
//	gauge   pipeline.raised 1
//	hist    pipeline.analysis_micros count=10 sum=42.0 min=1.2 max=9.9 p50=3.4 p99=9.8
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "gauge   %s %g\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "hist    %s count=%d sum=%.1f min=%.1f max=%.1f p50=%.1f p99=%.1f\n",
			name, h.Count, h.Sum, h.Min, h.Max, h.Quantile(0.50), h.Quantile(0.99)); err != nil {
			return err
		}
	}
	return nil
}

// sortedKeys returns the sorted key set of a string-keyed map.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// DumpFile writes the JSON snapshot to path, with "-" meaning stdout —
// the cmd-level `-metrics <path|->` contract.
func (r *Registry) DumpFile(path string) error {
	if path == "-" {
		return r.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}
