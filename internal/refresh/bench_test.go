package refresh

import (
	"slices"
	"testing"
	"time"

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

// BenchmarkDeviceRefreshSteps times every step of the refresh job on
// the device-shaped window of BenchmarkDeviceRefreshIncremental: each
// op observes 64 new device intervals untimed, then steps a warm job
// and a full job to completion, one timed step at a time, as the fleet
// loop runs them one per scored interval. For each path it reports the
// largest and the median step (warm-max-ns/step, warm-p50-ns/step,
// full-max-ns/step, full-p50-ns/step), the slowest kind of step by its
// median over the ops (warm-slowest-p50-ns/step,
// full-slowest-p50-ns/step; a kind is a stage of the job and the step's
// place in it, which the scheduler's hiccups that set the max do not
// move), and the steps per job. Steps of the dense fallback
// (Result.FallbackSteps), the one kind the per-step bound does not
// cover, are left out and counted in fallback-steps/op.
func BenchmarkDeviceRefreshSteps(b *testing.B) {
	det := deviceDetector(b)
	r := newRefresher(b, det, Config{Window: 192, Holdout: 64, Workers: 2})
	feedDevice(b, r, det, 0, 300)
	type kind struct {
		stage  jobStage
		nth    int // the step's place among its stage's consecutive steps
		isFull bool
	}
	byKind := map[kind][]time.Duration{}
	var warm, full []time.Duration
	warmSteps, fullSteps, fallback := 0, 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		feedDevice(b, r, det, 300+64*i, 64)
		b.StartTimer()
		for _, isFull := range []bool{false, true} {
			j, err := r.start(isFull)
			if err != nil {
				b.Fatal(err)
			}
			k := kind{stage: -1, isFull: isFull}
			for done := false; !done; {
				if j.stage == k.stage {
					k.nth++
				} else {
					k.stage, k.nth = j.stage, 0
				}
				before := r.pf.SolveStats().FallbackSteps
				t0 := time.Now()
				done, err = j.step()
				d := time.Since(t0)
				if err != nil {
					b.Fatal(err)
				}
				switch {
				case r.pf.SolveStats().FallbackSteps > before:
					fallback++
					continue
				case isFull:
					full = append(full, d)
				default:
					warm = append(warm, d)
				}
				byKind[k] = append(byKind[k], d)
			}
			if j.res.FullRebuild != isFull {
				b.Fatalf("full rebuild %t, want %t", j.res.FullRebuild, isFull)
			}
			if isFull {
				fullSteps += j.res.Steps
			} else {
				warmSteps += j.res.Steps
			}
		}
	}
	b.StopTimer()
	median := func(ds []time.Duration) float64 {
		slices.Sort(ds)
		return float64(ds[len(ds)/2].Nanoseconds())
	}
	slowest := [2]float64{}
	for k, ds := range byKind {
		if len(ds) < max(b.N/2, 1) {
			continue // a place too few jobs reach to have a median
		}
		if m := median(ds); k.isFull {
			slowest[1] = max(slowest[1], m)
		} else {
			slowest[0] = max(slowest[0], m)
		}
	}
	for p, path := range []struct {
		name string
		ds   []time.Duration
	}{{"warm", warm}, {"full", full}} {
		b.ReportMetric(median(path.ds), path.name+"-p50-ns/step")
		b.ReportMetric(float64(path.ds[len(path.ds)-1].Nanoseconds()), path.name+"-max-ns/step")
		b.ReportMetric(slowest[p], path.name+"-slowest-p50-ns/step")
	}
	b.ReportMetric(float64(warmSteps)/float64(b.N), "warm-steps/op")
	b.ReportMetric(float64(fullSteps)/float64(b.N), "full-steps/op")
	b.ReportMetric(float64(fallback)/float64(b.N), "fallback-steps/op")
}
