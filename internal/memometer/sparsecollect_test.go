package memometer

import (
	"math/rand"
	"testing"

	"github.com/memheatmap/mhm/internal/heatmap"
)

// collectOne drives one interval's worth of the given accesses through
// a freshly configured device and returns the collected MHM plus the
// device stats.
func collectOne(t *testing.T, region heatmap.Def, accesses []uint64) (*heatmap.HeatMap, Stats) {
	t.Helper()
	d := New()
	if err := d.Configure(Config{Region: region, IntervalMicros: 1000}); err != nil {
		t.Fatal(err)
	}
	for i, a := range accesses {
		if err := d.Snoop(int64(i%900), a); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Tick(1000); err != nil {
		t.Fatal(err)
	}
	m, err := d.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return m, d.Stats()
}

// TestCollectSparseRouteBitIdentical checks Collect's snapshots of a
// low-occupancy interval and of a saturated one against a reference
// accumulation.
func TestCollectSparseRouteBitIdentical(t *testing.T) {
	region := heatmap.Def{AddrBase: 0x1000, Size: 256 * 64, Gran: 64} // 256 cells
	rng := rand.New(rand.NewSource(91))

	// Sparse interval: ~12 occupied cells out of 256 (< 25%).
	var sparseAcc []uint64
	for i := 0; i < 300; i++ {
		cell := uint64(rng.Intn(12)) * 64
		sparseAcc = append(sparseAcc, 0x1000+cell+uint64(rng.Intn(64)))
	}
	// Dense interval: every cell touched (≥ 25%).
	var denseAcc []uint64
	for c := 0; c < 256; c++ {
		denseAcc = append(denseAcc, 0x1000+uint64(c)*64)
	}

	for _, tc := range []struct {
		name     string
		accesses []uint64
	}{
		{"sparse-route", sparseAcc},
		{"dense-route", denseAcc},
	} {
		m, _ := collectOne(t, region, tc.accesses)
		// Reference accumulation, independent of the device.
		ref, err := heatmap.New(region)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range tc.accesses {
			ref.Record(a, 1)
		}
		if m.Def != region {
			t.Fatalf("%s: snapshot def %+v", tc.name, m.Def)
		}
		if m.Start != 0 || m.End != 1000 {
			t.Fatalf("%s: interval [%d,%d], want [0,1000]", tc.name, m.Start, m.End)
		}
		for i, c := range ref.Counts {
			if m.Counts[i] != c {
				t.Fatalf("%s: cell %d = %d, want %d", tc.name, i, m.Counts[i], c)
			}
		}
	}
}

// TestCollectSparseRouteAcrossIntervals alternates dense and sparse
// intervals through one device: every returned map is caller-owned, so
// later intervals must not touch earlier snapshots.
func TestCollectSparseRouteAcrossIntervals(t *testing.T) {
	region := heatmap.Def{AddrBase: 0, Size: 128 * 64, Gran: 64} // 128 cells
	d := New()
	if err := d.Configure(Config{Region: region, IntervalMicros: 100}); err != nil {
		t.Fatal(err)
	}
	var snaps []*heatmap.HeatMap
	for interval := 0; interval < 4; interval++ {
		base := int64(interval * 100)
		if interval%2 == 0 {
			// Dense: touch every cell.
			for c := 0; c < 128; c++ {
				if err := d.Snoop(base+int64(c*90/128), uint64(c)*64); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			// Sparse: cells 0-3 only, counts marking the interval.
			for i := 0; i < 8; i++ {
				if err := d.Snoop(base+int64(i), uint64(i%4)*64); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := d.Tick(base + 100); err != nil {
			t.Fatal(err)
		}
		m, err := d.Collect()
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, m)
	}
	// Earlier snapshots must be untouched by later scratch reuse.
	for _, interval := range []int{1, 3} {
		m := snaps[interval]
		for c := 0; c < 4; c++ {
			if m.Counts[c] != 2 {
				t.Fatalf("interval %d cell %d = %d, want 2", interval, c, m.Counts[c])
			}
		}
		for c := 4; c < 128; c++ {
			if m.Counts[c] != 0 {
				t.Fatalf("interval %d cell %d = %d, want 0", interval, c, m.Counts[c])
			}
		}
	}
	for _, interval := range []int{0, 2} {
		for c, v := range snaps[interval].Counts {
			if v != 1 {
				t.Fatalf("interval %d cell %d = %d, want 1", interval, c, v)
			}
		}
	}
}
