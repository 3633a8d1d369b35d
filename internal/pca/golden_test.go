package pca

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/memheatmap/mhm/internal/mat"
	"github.com/memheatmap/mhm/internal/train"
)

// modelBits hashes a model's mean, basis, eigenvalues and total
// variance as FNV-1a over the float bits.
func modelBits(m *Model) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	l, _ := m.Dim()
	put(m.Mean...)
	for i := 0; i < l; i++ {
		put(m.Components.Row(i)...)
	}
	put(m.Values...)
	put(m.TotalVariance)
	return h.Sum64()
}

// TestPCATrainGoldenBits pins the exact bits of two cold fits — the
// variance-driven selection at the default 32+8 block and an explicit
// L' = 9 at a 17-vector block — for every worker count and both
// Parallel modes. The training set carries an always-zero cell so the
// covariance operator's zero-skip is on the path.
func TestPCATrainGoldenBits(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	set, _ := syntheticSet(rng, 160, 203, 12, 0.05)
	for _, v := range set {
		v[17] = 0
	}
	cases := []struct {
		opts   Options
		golden uint64
	}{
		{Options{}, 0x77e3c6d9dc99abea},
		{Options{Components: 9, Seed: 5}, 0xb848bec94038e347},
	}
	for ci, c := range cases {
		for _, workers := range []int{1, 2} {
			for _, parallel := range []bool{false, true} {
				opts := c.opts
				opts.Workers, opts.Parallel = workers, parallel
				m, err := Train(set, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := modelBits(m); got != c.golden {
					t.Errorf("case %d workers=%d parallel=%t: bits %#016x, golden %#016x", ci, workers, parallel, got, c.golden)
				}
			}
		}
	}
}

// TestPCARefreshGoldenBits pins the exact bits of a warm refresh over a
// sliding-window sketch whose fill (150) is not a multiple of four, at
// every sketch worker count and both Parallel modes.
func TestPCARefreshGoldenBits(t *testing.T) {
	const golden = 0x1dfd8eaf0bf86760
	rng := rand.New(rand.NewSource(62))
	set, _ := syntheticSet(rng, 150, 203, 9, 0.05)
	prev, err := Train(set, Options{Components: 9})
	if err != nil {
		t.Fatal(err)
	}
	drifted, _ := syntheticSet(rng, 150, 203, 9, 0.05)
	for _, workers := range []int{1, 2} {
		sk, err := train.NewCentered(203, 150, workers)
		if err != nil {
			t.Fatal(err)
		}
		pushAll(t, sk, set[:40])
		pushAll(t, sk, drifted)
		for _, parallel := range []bool{false, true} {
			m, err := Refresh(prev, sk, RefreshOptions{Parallel: parallel})
			if err != nil {
				t.Fatal(err)
			}
			if got := modelBits(m); got != golden {
				t.Errorf("workers=%d parallel=%t: bits %#016x, golden %#016x", workers, parallel, got, uint64(golden))
			}
		}
	}
}

// sparseSample writes a device-shaped sample into v: integer counts on
// each cell of support with probability 0.75, zero elsewhere.
func sparseSample(rng *rand.Rand, v []float64, support []int) {
	for i := range v {
		v[i] = 0
	}
	for k, c := range support {
		if rng.Float64() < 0.75 {
			v[c] = 1 + math.Round(float64(5+k%13)*(1+rng.Float64()))
		}
	}
}

// TestPCATrainSparseGoldenBits pins the exact bits of cold fits on a
// device-shaped training set — 200 samples over L = 600 cells of which
// only a fixed 70 are ever nonzero — at a fixed L' = 9 (a 17-vector
// block) and through the variance-driven selection at the default 32+8
// block.
func TestPCATrainSparseGoldenBits(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	support := rng.Perm(600)[:70]
	sort.Ints(support)
	set := make([][]float64, 200)
	for i := range set {
		set[i] = make([]float64, 600)
		sparseSample(rng, set[i], support)
	}
	cases := []struct {
		opts   Options
		golden uint64
	}{
		{Options{Components: 9, Seed: 3}, 0x6ab3b3164d8bfb71},
		{Options{}, 0x5cdda59a7b82babf},
	}
	for ci, c := range cases {
		for _, run := range []struct {
			workers  int
			parallel bool
		}{{1, false}, {2, true}} {
			opts := c.opts
			opts.Workers, opts.Parallel = run.workers, run.parallel
			m, err := Train(set, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := modelBits(m); got != c.golden {
				t.Errorf("case %d workers=%d parallel=%t: bits %#016x, golden %#016x", ci, run.workers, run.parallel, got, c.golden)
			}
		}
	}
}

// TestPCARefreshDriftedMeanGoldenBits pins the exact bits of a warm
// refresh over a window of fractional samples whose evictions leave a
// rounding residue in the running sums: the window mean is nonzero on
// cells that no held sample touches, so the covariance's −μμᵀ term
// reaches cells outside the held samples' support.
func TestPCARefreshDriftedMeanGoldenBits(t *testing.T) {
	const golden = 0x4e0381bc80a026e9
	const l, window = 400, 48
	rng := rand.New(rand.NewSource(64))
	cells := rng.Perm(l)[:60]
	early, late := cells[:20], cells[20:]
	frac := func(n int, support []int) [][]float64 {
		set := make([][]float64, n)
		for i := range set {
			set[i] = make([]float64, l)
			for _, c := range support {
				if rng.Float64() < 0.8 {
					set[i][c] = 5 * rng.Float64()
				}
			}
		}
		return set
	}
	first := frac(window, cells)
	prev, err := Train(first, Options{Components: 6})
	if err != nil {
		t.Fatal(err)
	}
	second := frac(window, late)
	for _, workers := range []int{1, 2} {
		sk, err := train.NewCentered(l, window, workers)
		if err != nil {
			t.Fatal(err)
		}
		pushAll(t, sk, first)
		pushAll(t, sk, second)
		residue := 0
		for _, c := range early {
			if !mat.IsZero(sk.Mean()[c]) {
				residue++
			}
		}
		if residue == 0 {
			t.Fatal("no evicted cell kept a nonzero mean; the fixture does not exercise the drifted mean")
		}
		for _, parallel := range []bool{false, true} {
			m, err := Refresh(prev, sk, RefreshOptions{Parallel: parallel})
			if err != nil {
				t.Fatal(err)
			}
			if got := modelBits(m); got != golden {
				t.Errorf("workers=%d parallel=%t: bits %#016x, golden %#016x", workers, parallel, got, uint64(golden))
			}
		}
	}
}
