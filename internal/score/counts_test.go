package score

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/memheatmap/mhm/internal/pca"
)

// countsL is the paper's base cell count (§5.4: L = 1,472).
const countsL = 1472

// widen returns counts as the float64 vector HeatMap.VectorInto builds
// from them, the input Score takes.
func widen(counts []uint32) []float64 {
	v := make([]float64, len(counts))
	for i, c := range counts {
		v[i] = float64(c)
	}
	return v
}

// checkCounts scores counts through ScoreCounts and their widened
// vector through Score, and demands the same score bits, the same
// reduced vector and the same route: the cell list, or the direct sweep
// once the scan gives up. It reports whether the route was the direct
// sweep.
func checkCounts(t *testing.T, name string, s *Scorer, counts []uint32) (direct bool) {
	t.Helper()
	v := widen(counts)
	want, err := s.Score(v)
	if err != nil {
		t.Fatal(err)
	}
	wantW := append([]float64(nil), s.w...)
	got, err := s.ScoreCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, want) {
		t.Fatalf("%s: ScoreCounts %v (bits %#x), Score %v (bits %#x)",
			name, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	for j := range wantW {
		if !sameBits(s.w[j], wantW[j]) {
			t.Fatalf("%s: ScoreCounts w[%d] = %v, Score %v", name, j, s.w[j], wantW[j])
		}
	}
	l := len(counts)
	direct = pca.ListOccupied(make([]float64, l), make([]int32, l), v) < 0
	if listed := occupiedCounts(make([]float64, l), make([]int32, l), counts) >= 0; listed == direct {
		t.Fatalf("%s: the counts scan lists the cells: %v; the vector scan: %v", name, listed, !direct)
	}
	return direct
}

// countsCases builds the count vectors TestScoreCountsMatchesScore
// pins: the all-zero map, one cell, a device interval (46 cells in short
// runs), a quarter of the cells, a block of cells on either side of the
// give-up point, half the cells, every cell, and math.MaxUint32 counts
// on a device interval and on every cell.
func countsCases(rng *rand.Rand) map[string][]uint32 {
	cases := map[string][]uint32{}
	add := func(name string, fill func(c []uint32)) {
		c := make([]uint32, countsL)
		fill(c)
		cases[name] = c
	}
	add("all-zero", func([]uint32) {})
	add("single-cell", func(c []uint32) { c[731] = 412 })
	device := deviceCounts(rng)
	add("device-46", func(c []uint32) { copy(c, device) })
	add("quarter", func(c []uint32) {
		for _, i := range rng.Perm(countsL)[:countsL/4] {
			c[i] = uint32(1 + rng.Intn(5000))
		}
	})
	// 512 cells occupied from cell s on: the scan meets cell s+k with k
	// cells listed and gives up when 3k > s+k+64. From s = 958 the last
	// cell meets 3k = s+k+64 exactly and the list holds; from s = 957 the
	// scan gives up at that last cell.
	for _, s := range []int{958, 957} {
		add(fmt.Sprintf("block-from-%d", s), func(c []uint32) {
			for i := s; i < s+512; i++ {
				c[i] = uint32(1 + rng.Intn(900))
			}
		})
	}
	add("half", func(c []uint32) {
		for _, i := range rng.Perm(countsL)[:countsL/2] {
			c[i] = uint32(1 + rng.Intn(5000))
		}
	})
	add("full", func(c []uint32) {
		for i := range c {
			c[i] = uint32(1 + rng.Intn(1<<20))
		}
	})
	add("max-device", func(c []uint32) {
		for i, x := range device {
			if x != 0 {
				c[i] = math.MaxUint32
			}
		}
	})
	add("max-full", func(c []uint32) {
		for i := range c {
			c[i] = math.MaxUint32
		}
	})
	return cases
}

// deviceCounts draws a device-like interval: 46 occupied cells of
// countsL, in runs of one to four cells, with counts up to 900.
func deviceCounts(rng *rand.Rand) []uint32 {
	c := make([]uint32, countsL)
	for n := 0; n < 46; {
		start := rng.Intn(countsL - 4)
		run := 1 + rng.Intn(4)
		for i := start; i < start+run && n < 46; i++ {
			if c[i] == 0 {
				c[i] = uint32(1 + rng.Intn(900))
				n++
			}
		}
	}
	return c
}

// TestScoreCountsMatchesScore pins ScoreCounts to Score on the widened
// counts, bit for bit, at L = 1,472 for every row grouping up to
// L' = 9, on one Scorer per L' so each call follows another's scratch.
// Both routes must run, and a wrong length must fail with ErrModel.
func TestScoreCountsMatchesScore(t *testing.T) {
	cases := countsCases(rand.New(rand.NewSource(61)))
	wantDirect := map[string]bool{"block-from-957": true, "half": true, "full": true, "max-full": true}
	for lp := 1; lp <= 9; lp++ {
		s := refEngine(countsL, lp, int64(lp)).NewScorer()
		for name, c := range cases {
			if direct := checkCounts(t, fmt.Sprintf("L'=%d %s", lp, name), s, c); direct != wantDirect[name] {
				t.Errorf("L'=%d %s: swept directly: %v, want %v", lp, name, direct, wantDirect[name])
			}
		}
		for _, n := range []int{0, countsL - 1, countsL + 1} {
			if _, err := s.ScoreCounts(make([]uint32, n)); !errors.Is(err, ErrModel) {
				t.Errorf("L'=%d: %d counts: %v, want ErrModel", lp, n, err)
			}
		}
	}
}

// FuzzScoreCountsMatchesScore drives the same comparison at L = 1,472
// over random eigenmemory counts, occupancies, layouts (cells at random,
// or one block of cells from a chosen start, which can meet the give-up
// point exactly) and count magnitudes up to math.MaxUint32.
func FuzzScoreCountsMatchesScore(f *testing.F) {
	f.Add(int64(1), uint8(9), uint16(46), false, uint16(0), uint8(22))
	f.Add(int64(2), uint8(6), uint16(0), false, uint16(0), uint8(0))
	f.Add(int64(3), uint8(9), uint16(512), true, uint16(958), uint8(20))
	f.Add(int64(4), uint8(9), uint16(512), true, uint16(957), uint8(0))
	f.Add(int64(5), uint8(5), uint16(countsL), false, uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, lp8 uint8, occ16 uint16, block bool, start16 uint16, shift8 uint8) {
		lp, occ, shift := int(lp8)%12+1, int(occ16)%(countsL+1), shift8%33
		rng := rand.New(rand.NewSource(seed))
		cells := rng.Perm(countsL)[:occ]
		if block {
			start := int(start16) % (countsL - occ + 1)
			for k := range cells {
				cells[k] = start + k
			}
		}
		c := make([]uint32, countsL)
		for _, i := range cells {
			// Counts of up to 32−shift bits; shift 0 includes math.MaxUint32.
			c[i] = max(1, uint32(rng.Uint64()>>(32+shift)))
		}
		name := fmt.Sprintf("L'=%d occupancy %d block %v from %d shift %d", lp, occ, block, start16, shift)
		checkCounts(t, name, refEngine(countsL, lp, seed).NewScorer(), c)
	})
}
