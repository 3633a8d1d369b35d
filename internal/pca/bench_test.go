package pca

import (
	"math/rand"
	"sort"
	"testing"

	"github.com/memheatmap/mhm/internal/train"
)

// BenchmarkRefreshIncremental times one warm eigenmemory refresh at the
// paper's shape — L = 1,472 cells, L' = 9, a full 192-sample window
// that has drifted from the previous fit — with the default eight
// warm-started subspace iterations over the sketch's block operator.
// Every cell is occupied, so the iterations run at full dimension.
func BenchmarkRefreshIncremental(b *testing.B) {
	const l, lp, window = 1472, 9, 192
	rng := rand.New(rand.NewSource(81))
	set, _ := syntheticSet(rng, window, l, lp+3, 0.05)
	drifted, _ := syntheticSet(rng, window, l, lp+3, 0.05)
	benchRefresh(b, set, drifted, lp)
}

// BenchmarkRefreshIncrementalDevice is BenchmarkRefreshIncremental at
// device occupancy: every sample holds integer counts on about 45 of a
// fixed 60-cell support, as in the device captures, so the warm
// iterations run on those 60 cells alone.
func BenchmarkRefreshIncrementalDevice(b *testing.B) {
	const l, lp, window = 1472, 9, 192
	rng := rand.New(rand.NewSource(82))
	support := rng.Perm(l)[:60]
	sort.Ints(support)
	sparse := func() [][]float64 {
		set := make([][]float64, window)
		for i := range set {
			set[i] = make([]float64, l)
			sparseSample(rng, set[i], support)
		}
		return set
	}
	set := sparse()
	benchRefresh(b, set, sparse(), lp)
}

// benchRefresh fits L' components to set, loads drifted into a sketch
// and times Refresh over it.
func benchRefresh(b *testing.B, set, drifted [][]float64, lp int) {
	prev, err := Train(set, Options{Components: lp})
	if err != nil {
		b.Fatal(err)
	}
	sk, err := train.NewCentered(len(set[0]), len(drifted), 1)
	if err != nil {
		b.Fatal(err)
	}
	pushAll(b, sk, drifted)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Refresh(prev, sk, RefreshOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
