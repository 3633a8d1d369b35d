package refresh

import (
	"errors"
	"math"
	"testing"

	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/fleet"
)

// fixture trains a base detector from the fleet workload generator and
// returns the workload for feeding observation streams.
func fixture(t testing.TB) (*fleet.Workload, *core.Detector) {
	t.Helper()
	wl, err := fleet.NewWorkload(1, fleet.SimRegion)
	if err != nil {
		t.Fatal(err)
	}
	det, err := wl.TrainDetector(192, 96)
	if err != nil {
		t.Fatal(err)
	}
	return wl, det
}

// feed pushes n generated intervals (streams round-robin) through
// Observe, scoring each under the detector for the density input.
func feed(t testing.TB, r *Refresher, wl *fleet.Workload, det *core.Detector, start, n int, anomalous bool) {
	t.Helper()
	l := fleet.SimRegion.Cells()
	v := make([]float64, l)
	for i := start; i < start+n; i++ {
		wl.VectorInto(v, i%4, i, anomalous)
		d, err := det.LogDensityVector(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Observe(v, d); err != nil {
			t.Fatal(err)
		}
	}
}

func newRefresher(t testing.TB, det *core.Detector, cfg Config) *Refresher {
	t.Helper()
	r, err := New(det, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRefreshIncrementalPath fills the window with in-distribution
// intervals and checks the fast path runs: no full rebuild, θ
// recalibrated, a usable detector with the same shapes and thresholds
// that classify like the original's.
func TestRefreshIncrementalPath(t *testing.T) {
	wl, det := fixture(t)
	r := newRefresher(t, det, Config{Window: 64, Holdout: 32, HoldoutEvery: 3})
	if r.Ready() {
		t.Fatal("ready before any observation")
	}
	feed(t, r, wl, det, 0, 96, false)
	if !r.Ready() {
		t.Fatal("not ready after 96 observations")
	}
	res, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if res.FullRebuild {
		t.Fatal("incremental refresh took the full-rebuild path")
	}
	if !res.Recalibrated {
		t.Fatal("holdout was non-empty but θ was not recalibrated")
	}
	if res.Detector == nil {
		t.Fatal("nil refreshed detector")
	}
	wantL, wantLP := det.Dim()
	gotL, gotLP := res.Detector.Dim()
	if gotL != wantL || gotLP != wantLP {
		t.Fatalf("refreshed dims (%d,%d), want (%d,%d)", gotL, gotLP, wantL, wantLP)
	}
	if len(res.Detector.Thresholds) != len(det.Thresholds) {
		t.Fatalf("%d thresholds, want %d", len(res.Detector.Thresholds), len(det.Thresholds))
	}
	// The refreshed model must still separate the workload: clean
	// intervals above θ, anomalous ones below.
	l := fleet.SimRegion.Cells()
	v := make([]float64, l)
	theta, err := res.Detector.Threshold(0.01)
	if err != nil {
		t.Fatal(err)
	}
	missClean, missAnom := 0, 0
	for i := 0; i < 50; i++ {
		wl.VectorInto(v, i%4, 500+i, false)
		d, err := res.Detector.LogDensityVector(v)
		if err != nil {
			t.Fatal(err)
		}
		if d < theta {
			missClean++
		}
		wl.VectorInto(v, i%4, 500+i, true)
		if d, err = res.Detector.LogDensityVector(v); err != nil {
			t.Fatal(err)
		}
		if d >= theta {
			missAnom++
		}
	}
	if missClean > 3 || missAnom > 3 {
		t.Fatalf("refreshed model misclassified %d/50 clean, %d/50 anomalous", missClean, missAnom)
	}
	refreshes, fulls, alarms := r.Counters()
	if refreshes != 1 || fulls != 0 || alarms != 0 {
		t.Fatalf("counters (%d,%d,%d), want (1,0,0)", refreshes, fulls, alarms)
	}
}

// TestRefreshDeterministicAcrossWorkers pins the headline determinism
// contract: the same observation history yields a bit-identical
// refreshed detector at every worker count.
func TestRefreshDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *core.Detector {
		wl, det := fixture(t)
		r := newRefresher(t, det, Config{Window: 64, Holdout: 24, HoldoutEvery: 4, Workers: workers})
		feed(t, r, wl, det, 0, 90, false)
		res, err := r.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		// A second refresh over more data exercises the warm chain.
		feed(t, r, wl, det, 90, 70, false)
		res, err = r.Refresh()
		if err != nil {
			t.Fatal(err)
		}
		return res.Detector
	}
	base := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i, th := range base.Thresholds {
			if math.Float64bits(th.Theta) != math.Float64bits(got.Thresholds[i].Theta) {
				t.Fatalf("workers=%d: θ_%g differs: %v vs %v", workers, th.P, th.Theta, got.Thresholds[i].Theta)
			}
		}
		l, lp := base.Dim()
		for j := 0; j < lp; j++ {
			for i := 0; i < l; i++ {
				if math.Float64bits(base.PCA.Components.At(i, j)) != math.Float64bits(got.PCA.Components.At(i, j)) {
					t.Fatalf("workers=%d: component (%d,%d) differs", workers, i, j)
				}
			}
		}
		for j := range base.GMM.Components {
			bc, gc := &base.GMM.Components[j], &got.GMM.Components[j]
			if math.Float64bits(bc.Weight) != math.Float64bits(gc.Weight) {
				t.Fatalf("workers=%d: weight[%d] differs", workers, j)
			}
			for i := range bc.Mean {
				if math.Float64bits(bc.Mean[i]) != math.Float64bits(gc.Mean[i]) {
					t.Fatalf("workers=%d: mean[%d][%d] differs", workers, j, i)
				}
			}
		}
	}
}

// TestRefreshEmptyHoldoutKeepsThresholds pins the θ recalibration edge
// case: with no held-out intervals the previous thresholds carry over
// unchanged and Recalibrated is false.
func TestRefreshEmptyHoldoutKeepsThresholds(t *testing.T) {
	wl, det := fixture(t)
	r := newRefresher(t, det, Config{Window: 64, Holdout: -1})
	feed(t, r, wl, det, 0, 64, false)
	res, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if res.Recalibrated {
		t.Fatal("recalibrated from an empty holdout")
	}
	if res.HoldoutLen != 0 {
		t.Fatalf("holdout len %d, want 0", res.HoldoutLen)
	}
	if len(res.Detector.Thresholds) != len(det.Thresholds) {
		t.Fatalf("%d thresholds, want %d", len(res.Detector.Thresholds), len(det.Thresholds))
	}
	for i, th := range det.Thresholds {
		if res.Detector.Thresholds[i] != th {
			t.Fatalf("threshold[%d] = %+v, want carried-over %+v", i, res.Detector.Thresholds[i], th)
		}
	}
}

// TestRefreshIdenticalDensities pins the degenerate-calibration edge
// case: a holdout of identical vectors produces identical densities,
// and every recalibrated θ_p collapses to that single density without
// error.
func TestRefreshIdenticalDensities(t *testing.T) {
	wl, det := fixture(t)
	r := newRefresher(t, det, Config{Window: 64, Holdout: 16, HoldoutEvery: 2})
	l := fleet.SimRegion.Cells()
	v := make([]float64, l)
	wl.VectorInto(v, 0, 7, false)
	d, err := det.LogDensityVector(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		if err := r.Observe(v, d); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recalibrated {
		t.Fatal("θ not recalibrated")
	}
	ths := res.Detector.Thresholds
	for _, th := range ths[1:] {
		if math.Float64bits(th.Theta) != math.Float64bits(ths[0].Theta) {
			t.Fatalf("identical densities yielded distinct θ: %v vs %v", th.Theta, ths[0].Theta)
		}
	}
}

// TestRefreshShortHoldoutWindow pins the quantile-support edge case: a
// holdout holding a single interval still recalibrates (the empirical
// quantile of one sample is that sample) for every configured p.
func TestRefreshShortHoldoutWindow(t *testing.T) {
	wl, det := fixture(t)
	// HoldoutEvery=64 over 64 observations routes exactly one interval
	// to the holdout ring.
	r := newRefresher(t, det, Config{Window: 64, Holdout: 8, HoldoutEvery: 64})
	feed(t, r, wl, det, 0, 64, false)
	res, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if res.HoldoutLen != 1 {
		t.Fatalf("holdout len %d, want 1", res.HoldoutLen)
	}
	if !res.Recalibrated {
		t.Fatal("single-sample holdout did not recalibrate")
	}
	ths := res.Detector.Thresholds
	for _, th := range ths[1:] {
		if math.Float64bits(th.Theta) != math.Float64bits(ths[0].Theta) {
			t.Fatal("single-sample quantiles disagree across p")
		}
	}
}

// TestRefreshDriftTriggersFullRebuild establishes a density baseline,
// then feeds intervals whose reported densities are far below it; the
// CUSUM must alarm and the next refresh must take the full path and
// clear the alarm.
func TestRefreshDriftTriggersFullRebuild(t *testing.T) {
	wl, det := fixture(t)
	r := newRefresher(t, det, Config{Window: 64, Holdout: 24, HoldoutEvery: 4, DriftThreshold: 8})
	feed(t, r, wl, det, 0, 90, false)
	if _, err := r.Refresh(); err != nil {
		t.Fatal(err)
	}
	if r.drift {
		t.Fatal("drift raised on the baseline")
	}
	// Report densities displaced far below the fitted channel.
	l := fleet.SimRegion.Cells()
	v := make([]float64, l)
	for i := 0; i < 60 && !r.drift; i++ {
		wl.VectorInto(v, i%4, 200+i, false)
		d, err := det.LogDensityVector(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Observe(v, d-1e3); err != nil {
			t.Fatal(err)
		}
	}
	if !r.drift {
		t.Fatal("persistent density shift did not raise the drift alarm")
	}
	res, err := r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if !res.FullRebuild {
		t.Fatal("drift alarm did not force the full-rebuild path")
	}
	if r.drift || r.cusum.S != 0 {
		t.Fatal("refresh did not clear the drift alarm")
	}
	_, fulls, alarms := r.Counters()
	if fulls != 1 || alarms != 1 {
		t.Fatalf("(fulls,alarms) = (%d,%d), want (1,1)", fulls, alarms)
	}
}

// TestRefreshNotReady checks ErrNotReady surfaces before the window has
// L'+2 samples.
func TestRefreshNotReady(t *testing.T) {
	wl, det := fixture(t)
	r := newRefresher(t, det, Config{Window: 64})
	feed(t, r, wl, det, 0, 3, false)
	if _, err := r.Refresh(); !errors.Is(err, ErrNotReady) {
		t.Fatalf("thin window: err = %v, want ErrNotReady", err)
	}
}

// TestObserveAllocationFree pins the steady-state zero-alloc contract
// on the Observe hot path (sketch route and holdout route).
func TestObserveAllocationFree(t *testing.T) {
	wl, det := fixture(t)
	r := newRefresher(t, det, Config{Window: 64, Holdout: 16, HoldoutEvery: 4})
	l := fleet.SimRegion.Cells()
	v := make([]float64, l)
	wl.VectorInto(v, 0, 3, false)
	d, err := det.LogDensityVector(v)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, r, wl, det, 0, 70, false) // past first fill, channel still unfitted
	allocs := testing.AllocsPerRun(100, func() {
		if err := r.Observe(v, d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Observe allocated %.1f/op, want 0", allocs)
	}
}

// TestConfigValidation exercises Config.fill errors.
func TestConfigValidation(t *testing.T) {
	_, det := fixture(t)
	if _, err := New(det, Config{Quantiles: []float64{1.5}}); !errors.Is(err, ErrConfig) {
		t.Fatalf("quantile 1.5: %v", err)
	}
	if _, err := New(det, Config{Window: 3}); !errors.Is(err, ErrConfig) {
		t.Fatalf("window below L'+2: %v", err)
	}
	if _, err := New(nil, Config{}); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil detector: %v", err)
	}
}

// TestObserveRejectsNonFinite feeds one vector with a single NaN or
// ±Inf cell amid clean intervals, positioned so that it would be routed
// to the holdout (the 92nd observation) or to the sketch (the 91st).
// Observe must reject it with ErrNonFinite and leave every piece of
// state alone — the seen counter, the CUSUM, both rings — so the next
// refresh is bit-identical to a run that never saw it.
func TestObserveRejectsNonFinite(t *testing.T) {
	wl, det := fixture(t)
	cfg := Config{Window: 64, Holdout: 24, HoldoutEvery: 4}
	l := fleet.SimRegion.Cells()
	for _, before := range []int{91, 90} {
		for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
			clean := newRefresher(t, det, cfg)
			r := newRefresher(t, det, cfg)
			for _, x := range []*Refresher{clean, r} {
				feed(t, x, wl, det, 0, 60, false)
				if _, err := x.Refresh(); err != nil { // fits the drift channel
					t.Fatal(err)
				}
				feed(t, x, wl, det, 60, before-60, false)
			}
			v := make([]float64, l)
			wl.VectorInto(v, 1, 400, false)
			d, err := det.LogDensityVector(v)
			if err != nil {
				t.Fatal(err)
			}
			v[l/2] = bad
			if err := r.Observe(v, d); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("after %d: observing a %v cell: err = %v, want ErrNonFinite", before, bad, err)
			}
			if r.cusum.S != clean.cusum.S {
				t.Fatalf("after %d: rejected %v moved the CUSUM: %v, want %v", before, bad, r.cusum.S, clean.cusum.S)
			}
			want := refreshOutcomeAfter(t, clean, wl, det, before)
			if got := refreshOutcomeAfter(t, r, wl, det, before); got != want {
				t.Errorf("after %d, rejected %v: next refresh %s, want %s", before, bad, got, want)
			}
		}
	}
}

// refreshOutcomeAfter feeds nine more clean intervals from start, then
// refreshes, and renders the result; it also checks the recalibrated
// thresholds are finite.
func refreshOutcomeAfter(t *testing.T, r *Refresher, wl *fleet.Workload, det *core.Detector, start int) string {
	t.Helper()
	feed(t, r, wl, det, start, 9, false)
	res, err := r.Refresh()
	if err == nil {
		for _, th := range res.Detector.Thresholds {
			if math.IsInf(th.Theta, 0) || math.IsNaN(th.Theta) {
				t.Fatalf("θ_%g = %v", th.P, th.Theta)
			}
		}
	}
	return refreshOutcome(res, err)
}
