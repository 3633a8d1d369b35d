package refresh

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/mat"
	"github.com/memheatmap/mhm/internal/pca"
)

// deviceRegion is a kernel-text region of the paper's size: L = 1,472
// cells of 4 KiB.
var deviceRegion = heatmap.Def{AddrBase: 0xc0000000, Size: 1472 << 12, Gran: 1 << 12}

// deviceSupport is the fixed set of cells the device intervals touch,
// ascending: 60 of the 1,472, as in the device captures, where every
// window touches the same few dozen cells.
var deviceSupport = func() []int {
	cells := rand.New(rand.NewSource(501)).Perm(deviceRegion.Cells())[:60]
	sort.Ints(cells)
	return cells
}()

// deviceMixes are three task mixes' mean counts per support cell.
var deviceMixes = func() [3][]float64 {
	rng := rand.New(rand.NewSource(502))
	var mixes [3][]float64
	for m := range mixes {
		mixes[m] = make([]float64, len(deviceSupport))
		for c := range mixes[m] {
			mixes[m][c] = 4 + 60*rng.Float64()
		}
	}
	return mixes
}()

// deviceVectorInto writes device interval i: integer counts on about 46
// of the 60 support cells (each touched with probability 0.77), drawn
// around one of the three mixes; every other cell is zero.
func deviceVectorInto(dst []float64, i int) {
	for c := range dst {
		dst[c] = 0
	}
	rng := rand.New(rand.NewSource(int64(7919*i + 3)))
	mix := deviceMixes[rng.Intn(len(deviceMixes))]
	for c, cell := range deviceSupport {
		if rng.Float64() < 0.77 {
			dst[cell] = 1 + math.Round(mix[c]*(0.75+0.5*rng.Float64()))
		}
	}
}

var deviceDet struct {
	once sync.Once
	det  *core.Detector
	err  error
}

// deviceDetector trains (once per test binary) the base detector the
// device-shaped refresh tests warm-start from: L' = 9, J = 3, trained on
// 240 device intervals and calibrated on 80 more.
func deviceDetector(t testing.TB) *core.Detector {
	t.Helper()
	deviceDet.once.Do(func() {
		maps := make([]*heatmap.HeatMap, 320)
		v := make([]float64, deviceRegion.Cells())
		for i := range maps {
			m, err := heatmap.New(deviceRegion)
			if err != nil {
				deviceDet.err = err
				return
			}
			deviceVectorInto(v, 100000+i)
			for c, x := range v {
				m.Counts[c] = uint32(x)
			}
			maps[i] = m
		}
		deviceDet.det, deviceDet.err = core.Train(maps[:240], maps[240:], core.Config{
			PCA: pca.Options{Components: 9},
			GMM: gmm.Options{Components: 3, Restarts: 2},
		})
	})
	if deviceDet.err != nil {
		t.Fatal(deviceDet.err)
	}
	return deviceDet.det
}

// observeAll feeds every vector to the refresher, scoring each under
// the base detector for the density input.
func observeAll(t testing.TB, r *Refresher, det *core.Detector, vs ...[]float64) {
	t.Helper()
	for _, v := range vs {
		d, err := det.LogDensityVector(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Observe(v, d); err != nil {
			t.Fatal(err)
		}
	}
}

// feedDevice observes device intervals [start, start+n).
func feedDevice(t testing.TB, r *Refresher, det *core.Detector, start, n int) {
	t.Helper()
	v := make([]float64, deviceRegion.Cells())
	for i := start; i < start+n; i++ {
		deviceVectorInto(v, i)
		observeAll(t, r, det, v)
	}
}

// refreshOutcome renders one Refresh result as the string the device
// goldens pin: the detector bits and the path taken, or the error.
func refreshOutcome(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%#016x full=%t", detectorBits(res.Detector), res.FullRebuild)
}

// TestRefreshDeviceGoldenBits pins the exact bits of a refresh chain on
// device-shaped windows — L = 1,472 with integer counts on about 46
// cells per interval from a fixed 60-cell support, window 192, holdout
// 64 — through three incremental refreshes, a full rebuild, and one
// more incremental refresh, at one and two workers. Unlike the
// simulator region of TestRefreshGoldenBits, most cells here are zero
// in every held sample.
func TestRefreshDeviceGoldenBits(t *testing.T) {
	golden := []string{
		"0x93fd2dfd1bcaba23 full=false",
		"0x4d6f590645598316 full=false",
		"0xa7cb8ee956896d15 full=false",
		"0x1b1044ff51bbc404 full=true",
		"0xb8ed57714d665cb0 full=false",
	}
	det := deviceDetector(t)
	for _, workers := range []int{1, 2} {
		r := newRefresher(t, det, Config{Window: 192, Holdout: 64, Workers: workers})
		feedDevice(t, r, det, 0, 256)
		for step, want := range golden {
			if got := refreshOutcome(r.refresh(step == 3)); got != want {
				t.Errorf("workers=%d step %d: %s, golden %s", workers, step, got, want)
			}
			feedDevice(t, r, det, 256+48*step, 48)
		}
	}
}

// TestRefreshAdversarialWindows pins what a device-shaped refresher
// makes of degenerate windows — the bits of each refresh, or its error
// — at one and two workers. Each window fills the 192-sample training
// ring and the 64-sample holdout; the first refresh takes the warm path
// (falling back to a full rebuild if the warm fit fails) and the second
// is a full rebuild.
func TestRefreshAdversarialWindows(t *testing.T) {
	l := deviceRegion.Cells()
	window := func(n int, fill func(v []float64, i int)) [][]float64 {
		vs := make([][]float64, n)
		for i := range vs {
			vs[i] = make([]float64, l)
			fill(vs[i], i)
		}
		return vs
	}
	cases := []struct {
		name    string
		samples [][]float64
		golden  [2]string
	}{
		// Every interval identical: the window covariance is zero up to
		// rounding.
		{"constant", window(256, func(v []float64, _ int) { deviceVectorInto(v, 11) }),
			[2]string{"0xe987f70020287a49 full=false", "0x29264615a5be7c6e full=true"}},
		// Five distinct intervals in rotation, fewer than the 17-vector
		// block: the covariance has rank four.
		{"rank-deficient", window(256, func(v []float64, i int) { deviceVectorInto(v, i%5) }),
			[2]string{"0x8e0657eac214a947 full=false", "0x8f43fd5bcc6d5495 full=true"}},
		// Every interval touches the same 12 cells, fewer than the block.
		{"support-below-block", window(256, func(v []float64, i int) {
			deviceVectorInto(v, i)
			for _, c := range deviceSupport[12:] {
				v[c] = 0
			}
		}), [2]string{"0x34e9d93ac6012902 full=false", "0x6ff18be77228d236 full=true"}},
		// Three cells saturated at the uint32 maximum in every interval.
		{"uint32-max", window(256, func(v []float64, i int) {
			deviceVectorInto(v, i)
			for _, c := range deviceSupport[:3] {
				v[c] = math.MaxUint32
			}
		}), [2]string{"0x93479468f90ab021 full=false", "0x82709b6eb2c2e2f9 full=true"}},
	}
	det := deviceDetector(t)
	for _, c := range cases {
		for _, workers := range []int{1, 2} {
			r := newRefresher(t, det, Config{Window: 192, Holdout: 64, Workers: workers})
			observeAll(t, r, det, c.samples...)
			for step, want := range c.golden {
				if got := refreshOutcome(r.refresh(step == 1)); got != want {
					t.Errorf("%s workers=%d step %d: %s, golden %s", c.name, workers, step, got, want)
				}
			}
		}
	}
}

// TestObserveNegativeZeroKeepsModel feeds two refreshers the same
// device intervals, one with every empty cell written as −0. The sketch
// stores a −0 entry as +0, so its samples read back differently, but
// every refreshed model — the warm path and the full rebuild — must
// keep the bits the +0 intervals give.
func TestObserveNegativeZeroKeepsModel(t *testing.T) {
	det := deviceDetector(t)
	negZero := math.Copysign(0, -1)
	for _, workers := range []int{1, 2} {
		cfg := Config{Window: 192, Holdout: 64, Workers: workers}
		plain, signed := newRefresher(t, det, cfg), newRefresher(t, det, cfg)
		v := make([]float64, deviceRegion.Cells())
		for i := 0; i < 256; i++ {
			deviceVectorInto(v, i)
			observeAll(t, plain, det, v)
			for c, x := range v {
				if mat.IsZero(x) {
					v[c] = negZero
				}
			}
			observeAll(t, signed, det, v)
		}
		for step := 0; step < 2; step++ {
			want := refreshOutcome(plain.refresh(step == 1))
			if got := refreshOutcome(signed.refresh(step == 1)); got != want {
				t.Errorf("workers=%d step %d: −0 intervals refresh to %s, +0 intervals to %s", workers, step, got, want)
			}
		}
	}
}

// TestDeviceObserveAllocationFree pins Observe at 0 allocs/op on
// device-shaped intervals at one and two workers, on both the holdout
// and the sketch route.
func TestDeviceObserveAllocationFree(t *testing.T) {
	det := deviceDetector(t)
	vs := make([][]float64, 16)
	for i := range vs {
		vs[i] = make([]float64, deviceRegion.Cells())
		deviceVectorInto(vs[i], 300+i)
	}
	for _, workers := range []int{1, 2} {
		r := newRefresher(t, det, Config{Window: 192, Holdout: 64, Workers: workers})
		feedDevice(t, r, det, 0, 300)
		i := 0
		allocs := testing.AllocsPerRun(64, func() {
			i++
			if err := r.Observe(vs[i%len(vs)], 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("workers=%d: Observe allocated %.1f/op, want 0", workers, allocs)
		}
	}
}
