package experiments

import (
	"strings"
	"testing"
)

// TestScoringThroughputShape checks the A13 experiment's structure:
// two modes over the same interval count, single as the 1x baseline,
// and a renderable table. Timing magnitudes are hardware-dependent and
// asserted only by the committed benchmark baseline, not here.
func TestScoringThroughputShape(t *testing.T) {
	lab, det, _ := quickLab(t)
	r, err := lab.ScoringThroughput(det, 5100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(r.Rows))
	}
	modes := []string{"single", "batch64"}
	for i, row := range r.Rows {
		if row.Mode != modes[i] {
			t.Errorf("row %d mode %q, want %q", i, row.Mode, modes[i])
		}
		if row.Intervals <= 0 || row.PerMHMMicros <= 0 {
			t.Errorf("row %q: intervals %d, per-MHM %v", row.Mode, row.Intervals, row.PerMHMMicros)
		}
		if row.Speedup <= 0 {
			t.Errorf("row %q: speedup %v", row.Mode, row.Speedup)
		}
	}
	if r.Rows[0].Speedup != 1 {
		t.Errorf("single speedup %v, want 1", r.Rows[0].Speedup)
	}
	if r.Batch != 64 {
		t.Errorf("batch=%d", r.Batch)
	}
	out := r.String()
	for _, want := range []string{"A13", "single", "batch64"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
