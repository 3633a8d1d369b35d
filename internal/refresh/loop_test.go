package refresh

import (
	"math"
	"testing"

	"github.com/memheatmap/mhm/internal/fleet"
)

func runSimWithLoop(t *testing.T, workers int) (*fleet.SimResult, LoopStats, error) {
	t.Helper()
	sim, err := fleet.NewSim(fleet.SimConfig{
		Streams:       8,
		Seed:          1,
		HorizonMicros: 600_000, // 60 intervals per stream
		Workers:       workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	loop, err := NewLoop(sim.Detector(), sim.Registry(), LoopConfig{
		Every: 60,
		Refresher: Config{
			Window:  64,
			Holdout: 24,
			Workers: workers,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetMaintainer(loop)
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, loop.Stats(), loop.Err()
}

// TestLoopRefreshesFleetWithoutDrops runs the fleet simulator with the
// refresh loop installed and pins the zero-drop invariant: every
// admitted interval resolves a model across all hot swaps, refreshes
// actually happen, and the registry converges onto a refreshed
// generation.
func TestLoopRefreshesFleetWithoutDrops(t *testing.T) {
	res, stats, lerr := runSimWithLoop(t, 4)
	if lerr != nil {
		t.Fatalf("loop error: %v", lerr)
	}
	if res.DroppedIntervals != 0 {
		t.Fatalf("%d dropped intervals across swaps, want 0", res.DroppedIntervals)
	}
	if stats.Refreshes == 0 || stats.SwapsScheduled == 0 {
		t.Fatalf("loop idle: %+v", stats)
	}
	if stats.Version < 2 {
		t.Fatalf("no refreshed generation published: version %d", stats.Version)
	}
	if stats.Observed != res.Admitted {
		t.Fatalf("maintainer observed %d of %d admitted intervals", stats.Observed, res.Admitted)
	}
}

// TestLoopSimDeterministicAcrossWorkers pins the fleet-level
// determinism contract with online refresh active: verdict counts,
// alarm traces and loop stats are identical at every worker count.
func TestLoopSimDeterministicAcrossWorkers(t *testing.T) {
	baseRes, baseStats, lerr := runSimWithLoop(t, 1)
	if lerr != nil {
		t.Fatalf("loop error: %v", lerr)
	}
	for _, workers := range []int{2, 8} {
		res, stats, lerr := runSimWithLoop(t, workers)
		if lerr != nil {
			t.Fatalf("workers=%d: loop error: %v", workers, lerr)
		}
		if res.Anomalous != baseRes.Anomalous || res.Admitted != baseRes.Admitted {
			t.Fatalf("workers=%d: verdicts (%d,%d) vs (%d,%d)",
				workers, res.Anomalous, res.Admitted, baseRes.Anomalous, baseRes.Admitted)
		}
		if len(res.Alarms) != len(baseRes.Alarms) {
			t.Fatalf("workers=%d: %d alarms vs %d", workers, len(res.Alarms), len(baseRes.Alarms))
		}
		for i, a := range baseRes.Alarms {
			if res.Alarms[i] != a {
				t.Fatalf("workers=%d: alarm[%d] = %+v, want %+v", workers, i, res.Alarms[i], a)
			}
		}
		if stats != baseStats {
			t.Fatalf("workers=%d: loop stats %+v vs %+v", workers, stats, baseStats)
		}
	}
}

// TestLoopStatsDriftFieldsFinite sanity-checks the published snapshot
// fields after a run.
func TestLoopStatsDriftFieldsFinite(t *testing.T) {
	_, stats, _ := runSimWithLoop(t, 2)
	if math.IsNaN(stats.LastDriftStat) || stats.LastDriftStat < 0 {
		t.Fatalf("drift stat %v", stats.LastDriftStat)
	}
	if stats.LastWindow <= 0 {
		t.Fatalf("last window %d", stats.LastWindow)
	}
}

// TestNewLoopValidation exercises constructor errors.
func TestNewLoopValidation(t *testing.T) {
	wl, det := fixture(t)
	_ = wl
	base, err := fleet.NewModel(det, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := fleet.NewRegistry(2, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLoop(nil, reg, LoopConfig{}); err == nil {
		t.Fatal("nil detector accepted")
	}
	if _, err := NewLoop(det, nil, LoopConfig{}); err == nil {
		t.Fatal("nil registry accepted")
	}
	if _, err := NewLoop(det, reg, LoopConfig{Quantile: 0.123}); err == nil {
		t.Fatal("quantile absent from the base detector accepted")
	}
	l, err := NewLoop(det, reg, LoopConfig{Every: 40})
	if err != nil {
		t.Fatal(err)
	}
	if l.r == nil {
		t.Fatal("nil refresher")
	}
}
