package gmm

import (
	"math"
	"math/rand"
	"testing"
)

func refitCenters() [][]float64 {
	return [][]float64{{0, 0, 0}, {8, 8, 0}, {0, 8, 8}}
}

// TestRefitTracksDriftedWindow warm-refits a trained mixture over a
// slightly shifted window and checks the refreshed fit explains the new
// data about as well as a cold retrain, in a fraction of the
// iterations.
func TestRefitTracksDriftedWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	centers := refitCenters()
	data, _ := sampleMixture(rng, 500, centers, 0.8)
	prev, err := Train(data, Options{Components: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	shifted := make([][]float64, 0, 500)
	more, _ := sampleMixture(rng, 500, centers, 0.8)
	for _, v := range more {
		w := append([]float64(nil), v...)
		for i := range w {
			w[i] += 0.4
		}
		shifted = append(shifted, w)
	}
	cold, err := Train(shifted, Options{Components: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Refit(shifted, prev)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Components) != 3 || warm.Dim() != 3 {
		t.Fatalf("refit shape (%d comps, dim %d)", len(warm.Components), warm.Dim())
	}
	coldLL, err := cold.TotalLogLikelihood(shifted)
	if err != nil {
		t.Fatal(err)
	}
	warmLL, err := warm.TotalLogLikelihood(shifted)
	if err != nil {
		t.Fatal(err)
	}
	if warmLL < coldLL-0.01*math.Abs(coldLL) {
		t.Fatalf("warm LL %g too far below cold LL %g", warmLL, coldLL)
	}
}

// TestRefitRejectsBadInput checks validation: nil model, empty window,
// dimension mismatch.
func TestRefitRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	data, _ := sampleMixture(rng, 200, refitCenters(), 0.6)
	prev, err := Train(data, Options{Components: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Refit(data, nil); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := Refit(nil, prev); err == nil {
		t.Fatal("empty window accepted")
	}
	bad := [][]float64{{1, 2}}
	if _, err := Refit(bad, prev); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}
