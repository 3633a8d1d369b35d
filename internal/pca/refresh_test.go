package pca

import (
	"math"
	"math/rand"
	"testing"

	"github.com/memheatmap/mhm/internal/mat"
	"github.com/memheatmap/mhm/internal/train"
)

// pushAll feeds the samples to sk one Update at a time, each with the
// list of its cells that are not ±0.
func pushAll(tb testing.TB, sk *train.Centered, samples [][]float64) {
	tb.Helper()
	for _, v := range samples {
		var cells []int32
		for i, x := range v {
			if !mat.IsZero(x) {
				cells = append(cells, int32(i))
			}
		}
		if err := sk.Update(v, cells); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestRefreshMatchesTrainOnSameWindow refreshes over the exact window a
// cold Train saw and checks the recovered subspace agrees: same L',
// matching eigenvalues, aligned eigenvectors (up to sign).
func TestRefreshMatchesTrainOnSameWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	set, _ := syntheticSet(rng, 150, 48, 4, 0.01)
	prev, err := Train(set, Options{Components: 4})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := train.NewCentered(48, 150, 1)
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, sk, set)
	got, err := Refresh(prev, sk, RefreshOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, lp := got.Dim()
	if lp != 4 {
		t.Fatalf("refreshed L' = %d, want 4", lp)
	}
	for i := range got.Values {
		if d := math.Abs(got.Values[i] - prev.Values[i]); d > 1e-6*(1+prev.Values[0]) {
			t.Errorf("value[%d] = %g, want %g", i, got.Values[i], prev.Values[i])
		}
		dot := math.Abs(mat.Dot(got.Components.ColCopy(i), prev.Components.ColCopy(i)))
		if math.Abs(dot-1) > 1e-5 {
			t.Errorf("component %d misaligned: |dot| = %g", i, dot)
		}
	}
	if d := math.Abs(got.TotalVariance - prev.TotalVariance); d > 1e-6*(1+prev.TotalVariance) {
		t.Errorf("total variance %g, want %g", got.TotalVariance, prev.TotalVariance)
	}
}

// TestRefreshTracksDriftedWindow slides the window onto drifted data
// and checks the refreshed basis matches a cold retrain over the same
// window far better than the stale basis does, within Refresh's
// bounded iteration count.
func TestRefreshTracksDriftedWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	set, _ := syntheticSet(rng, 150, 48, 4, 0.01)
	prev, err := Train(set, Options{Components: 4})
	if err != nil {
		t.Fatal(err)
	}
	drifted, _ := syntheticSet(rng, 150, 48, 4, 0.01)
	sk, err := train.NewCentered(48, 150, 1)
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, sk, drifted)
	cold, err := Train(drifted, Options{Components: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Refresh(prev, sk, RefreshOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Values {
		if d := math.Abs(got.Values[i] - cold.Values[i]); d > 1e-4*(1+cold.Values[0]) {
			t.Errorf("value[%d] = %g, cold retrain %g", i, got.Values[i], cold.Values[i])
		}
	}
}

// TestRefreshDeterministic pins bit-identity across the Parallel modes.
func TestRefreshDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	set, _ := syntheticSet(rng, 120, 40, 3, 0.02)
	prev, err := Train(set, Options{Components: 3})
	if err != nil {
		t.Fatal(err)
	}
	drifted, _ := syntheticSet(rng, 120, 40, 3, 0.02)
	sk, err := train.NewCentered(40, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, sk, drifted)
	base, err := Refresh(prev, sk, RefreshOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []bool{false, true} {
		got, err := Refresh(prev, sk, RefreshOptions{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.Values {
			if math.Float64bits(base.Values[i]) != math.Float64bits(got.Values[i]) {
				t.Fatalf("parallel=%t: value[%d] differs", parallel, i)
			}
		}
		for i := range base.Mean {
			if math.Float64bits(base.Mean[i]) != math.Float64bits(got.Mean[i]) {
				t.Fatalf("parallel=%t: mean[%d] differs", parallel, i)
			}
		}
	}
}

// TestRefreshRejectsThinWindow checks the window floor.
func TestRefreshRejectsThinWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	set, _ := syntheticSet(rng, 60, 20, 4, 0.01)
	prev, err := Train(set, Options{Components: 4})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := train.NewCentered(20, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, sk, set[:2])
	if _, err := Refresh(prev, sk, RefreshOptions{}); err == nil {
		t.Fatal("refresh over a 2-sample window for L'=4 succeeded")
	}
}
