package gmm

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkTrainRefreshShape times the refresh's full-rebuild mixture
// fit at its shape: 192 window samples, D = L′ = 9, J = 5 and 2
// restarts, with the restarts on one worker and side by side on two.
// The five clusters overlap, so EM runs tens of iterations, as it does
// on projected device windows.
func BenchmarkTrainRefreshShape(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([][]float64, 192)
	for i := range data {
		data[i] = make([]float64, 9)
		for d := range data[i] {
			data[i][d] = 2*float64((i+d)%5) + rng.NormFloat64()
		}
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := Options{Components: 5, Restarts: 2, Workers: workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Train(data, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
