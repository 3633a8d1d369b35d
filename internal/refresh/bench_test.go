package refresh

import (
	"testing"

	"github.com/memheatmap/mhm/internal/fleet"
)

// BenchmarkCenteredObserve times the Observe hot path at the
// simulator's region shape — the steady-state cost of keeping the
// training window current. allocs/op must be 0.
func BenchmarkCenteredObserve(b *testing.B) {
	wl, det := fixture(b)
	r := newRefresher(b, det, Config{Window: 192, Holdout: 64})
	l := fleet.SimRegion.Cells()
	v := make([]float64, l)
	wl.VectorInto(v, 0, 1, false)
	d, err := det.LogDensityVector(v)
	if err != nil {
		b.Fatal(err)
	}
	feed(b, r, wl, det, 0, 200, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Observe(v, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefreshIncremental times one incremental refresh (warm
// eigen + warm EM + θ recalibration) over a full window — the fast
// path the fleet loop runs every cycle.
func BenchmarkRefreshIncremental(b *testing.B) {
	wl, det := fixture(b)
	r := newRefresher(b, det, Config{Window: 192, Holdout: 64})
	feed(b, r, wl, det, 0, 300, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullRetrain times the slow path the refresh replaces: a
// from-scratch core.Train over the same window size, via the workload's
// trainer (PCA restart + GMM restarts + calibration).
func BenchmarkFullRetrain(b *testing.B) {
	wl, err := fleet.NewWorkload(1, fleet.SimRegion)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wl.TrainDetector(192, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// deviceBenchRefresher returns a refresher in the shape refresh-mixed
// serves — window 192, holdout 64, Workers: 2 — warm-started from the
// device detector and filled with 300 device intervals (L = 1,472,
// about 46 occupied cells each from device_test.go's 60-cell support),
// plus 64 more device intervals and their densities to observe.
func deviceBenchRefresher(b *testing.B) (*Refresher, [][]float64, []float64) {
	det := deviceDetector(b)
	r := newRefresher(b, det, Config{Window: 192, Holdout: 64, Workers: 2})
	feedDevice(b, r, det, 0, 300)
	vs := make([][]float64, 64)
	ds := make([]float64, len(vs))
	for i := range vs {
		vs[i] = make([]float64, deviceRegion.Cells())
		deviceVectorInto(vs[i], 300+i)
		d, err := det.LogDensityVector(vs[i])
		if err != nil {
			b.Fatal(err)
		}
		ds[i] = d
	}
	return r, vs, ds
}

// BenchmarkDeviceObserve times Observe on device-shaped intervals at
// the worker count the serving loop uses: every fourth interval goes
// to the holdout ring, the rest evict and insert in the full training
// window. allocs/op must be 0 (the CI allocation gate).
func BenchmarkDeviceObserve(b *testing.B) {
	r, vs, ds := deviceBenchRefresher(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Observe(vs[i%len(vs)], ds[i%len(ds)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceRefreshIncremental times one incremental refresh
// (warm eigen on the support, the window projection, warm EM and θ
// recalibration) over a full device-shaped window, in the shape
// refresh-mixed serves. As there, 64 new device intervals arrive
// between refreshes, observed untimed: a warm EM over a window it has
// already fitted stops after fewer iterations than serving runs.
func BenchmarkDeviceRefreshIncremental(b *testing.B) {
	det := deviceDetector(b)
	r := newRefresher(b, det, Config{Window: 192, Holdout: 64, Workers: 2})
	feedDevice(b, r, det, 0, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		feedDevice(b, r, det, 300+64*i, 64)
		b.StartTimer()
		res, err := r.refresh(false)
		if err != nil {
			b.Fatal(err)
		}
		if res.FullRebuild {
			b.Fatal("refresh took the full path")
		}
	}
}

// BenchmarkDeviceRefreshFull times the full rebuild (pca.Train and
// gmm.Train from scratch over the window, then θ recalibration) on the
// device-shaped window of BenchmarkDeviceRefreshIncremental. Each op
// runs an incremental refresh untimed and then times a full one.
func BenchmarkDeviceRefreshFull(b *testing.B) {
	det := deviceDetector(b)
	r := newRefresher(b, det, Config{Window: 192, Holdout: 64, Workers: 2})
	feedDevice(b, r, det, 0, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if res, err := r.refresh(false); err != nil || res.FullRebuild {
			b.Fatalf("untimed refresh: err %v, want the incremental path", err)
		}
		b.StartTimer()
		res, err := r.refresh(true)
		if err != nil {
			b.Fatal(err)
		}
		if !res.FullRebuild {
			b.Fatal("refresh took the incremental path")
		}
	}
}
