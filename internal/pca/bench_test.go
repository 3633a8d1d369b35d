package pca

import (
	"math/rand"
	"testing"

	"github.com/memheatmap/mhm/internal/train"
)

// BenchmarkRefreshIncremental times one warm eigenmemory refresh at the
// paper's shape — L = 1,472 cells, L' = 9, a full 192-sample window
// that has drifted from the previous fit — with the default eight
// warm-started subspace iterations over the sketch's block operator.
func BenchmarkRefreshIncremental(b *testing.B) {
	const l, lp, window = 1472, 9, 192
	rng := rand.New(rand.NewSource(81))
	set, _ := syntheticSet(rng, window, l, lp+3, 0.05)
	prev, err := Train(set, Options{Components: lp})
	if err != nil {
		b.Fatal(err)
	}
	drifted, _ := syntheticSet(rng, window, l, lp+3, 0.05)
	sk, err := train.NewCentered(l, window, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := sk.Update(drifted); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Refresh(prev, sk, RefreshOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
