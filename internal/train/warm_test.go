package train

import (
	"math"
	"testing"
)

// TestEMFitWarmStart seeds EM from a previous fit and checks the warm
// run needs no init means, keeps K, and does not regress the data
// log-likelihood (a warm iteration from the optimum is a no-op up to
// rounding; from anywhere else EM ascends).
func TestEMFitWarmStart(t *testing.T) {
	data, means := testData(400, 6, 3, 21)
	prev, err := EMFit(data, means, fitCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fitCfg(3)
	cfg.MaxIter = 4
	cfg.Warm = prev
	got, err := EMFit(data, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != prev.K || got.D != prev.D {
		t.Fatalf("warm fit shape (%d,%d), want (%d,%d)", got.K, got.D, prev.K, prev.D)
	}
	if got.LogLikelihood < prev.LogLikelihood-1e-6*math.Abs(prev.LogLikelihood) {
		t.Fatalf("warm LL %v regressed below seed %v", got.LogLikelihood, prev.LogLikelihood)
	}
}

// TestEMFitWarmStartOnShiftedData warm-starts on a drifted window and
// checks convergence in a small bounded iteration budget: the warm fit
// must reach within 0.5% of a cold 40-iteration fit's log-likelihood in
// 4 iterations.
func TestEMFitWarmStartOnShiftedData(t *testing.T) {
	data, means := testData(400, 6, 3, 21)
	prev, err := EMFit(data, means, fitCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	shifted, shiftMeans := testData(400, 6, 3, 22)
	for _, v := range shifted {
		for j := range v {
			v[j] += 0.5
		}
	}
	cold, err := EMFit(shifted, shiftMeans, fitCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fitCfg(3)
	cfg.MaxIter = 4
	cfg.Warm = prev
	warm, err := EMFit(shifted, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.LogLikelihood < cold.LogLikelihood-0.005*math.Abs(cold.LogLikelihood) {
		t.Fatalf("warm LL %v too far below cold LL %v", warm.LogLikelihood, cold.LogLikelihood)
	}
}

// TestEMFitWarmRejectsShapeMismatch checks warm-start validation.
func TestEMFitWarmRejectsShapeMismatch(t *testing.T) {
	data, means := testData(100, 4, 2, 3)
	prev, err := EMFit(data, means, fitCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	wrong, _ := testData(100, 5, 2, 4)
	cfg := fitCfg(2)
	cfg.Warm = prev
	if _, err := EMFit(wrong, nil, cfg); err == nil {
		t.Fatal("warm fit over mismatched dimension succeeded")
	}
}
