package pca

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

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
		if err := sk.Update(set[:40]); err != nil {
			t.Fatal(err)
		}
		if err := sk.Update(drifted); err != nil {
			t.Fatal(err)
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
