package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/heatmap"
)

// ScoringRow is one mode of the scoring-throughput experiment.
type ScoringRow struct {
	// Mode identifies the scoring path: "single" or "batch64".
	Mode string
	// Intervals is the number of MHMs classified.
	Intervals int
	// PerMHMMicros is the mean classification cost in the mode.
	PerMHMMicros float64
	// Speedup is relative to the single-vector loop.
	Speedup float64
}

// ScoringResult compares the scoring engine's execution modes on the
// same classification workload: the single-vector loop (the paper's
// per-interval deployment) and the blocked B=64 batch kernel (offline
// sweeps).
type ScoringResult struct {
	L, LPrime, J int
	Batch        int
	Rows         []ScoringRow
}

// String renders the comparison.
func (r ScoringResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A13 — scoring engine throughput (L=%d, L'=%d, J=%d)\n", r.L, r.LPrime, r.J)
	b.WriteString("  mode       intervals  per-MHM(µs)  speedup\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s  %9d  %11.3f  %6.2fx\n",
			row.Mode, row.Intervals, row.PerMHMMicros, row.Speedup)
	}
	fmt.Fprintf(&b, "  (batch B=%d)\n", r.Batch)
	return b.String()
}

// scoringBatch is the blocked batch size reported by the experiment.
const scoringBatch = 64

// ScoringThroughput measures the two scoring modes over fresh normal
// captures, repeating each mode enough to stabilize the timing. All
// modes produce bit-identical log densities; only the schedule differs.
func (l *Lab) ScoringThroughput(det *core.Detector, seedBase int64, repeats int) (*ScoringResult, error) {
	if repeats <= 0 {
		repeats = 3
	}
	maps, err := l.CollectNormal(seedBase+7, l.Scale.TrainRunMicros)
	if err != nil {
		return nil, err
	}
	if len(maps) == 0 {
		return nil, fmt.Errorf("experiments: scoring: no test MHMs: %w", ErrExperiment)
	}
	vecs, err := heatmap.PackVectors(maps)
	if err != nil {
		return nil, err
	}
	dst := make([]float64, len(vecs))

	cells, lprime := det.Dim()
	res := &ScoringResult{
		L:      cells,
		LPrime: lprime,
		J:      len(det.GMM.Components),
		Batch:  scoringBatch,
	}

	// Mode 1: the single-vector loop.
	if _, err := det.LogDensityVector(vecs[0]); err != nil {
		return nil, err
	}
	start := time.Now()
	for r := 0; r < repeats; r++ {
		for _, v := range vecs {
			if _, err := det.LogDensityVector(v); err != nil {
				return nil, err
			}
		}
	}
	singleMicros := microsPer(start, repeats*len(vecs))
	res.Rows = append(res.Rows, ScoringRow{
		Mode: "single", Intervals: repeats * len(vecs), PerMHMMicros: singleMicros, Speedup: 1,
	})

	// Mode 2: blocked batches of scoringBatch.
	start = time.Now()
	for r := 0; r < repeats; r++ {
		for lo := 0; lo < len(vecs); lo += scoringBatch {
			hi := lo + scoringBatch
			if hi > len(vecs) {
				hi = len(vecs)
			}
			if err := det.LogDensityBatch(dst[lo:hi], vecs[lo:hi]); err != nil {
				return nil, err
			}
		}
	}
	batchMicros := microsPer(start, repeats*len(vecs))
	res.Rows = append(res.Rows, ScoringRow{
		Mode: "batch64", Intervals: repeats * len(vecs), PerMHMMicros: batchMicros,
		Speedup: singleMicros / batchMicros,
	})

	return res, nil
}

// microsPer returns mean microseconds per item since start.
func microsPer(start time.Time, items int) float64 {
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(items)
}
