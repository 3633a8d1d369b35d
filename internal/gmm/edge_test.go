package gmm

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestTrainRejectsDegenerateInput(t *testing.T) {
	pt := []float64{1, 2}
	cases := []struct {
		name string
		data [][]float64
		opts Options
	}{
		{"empty set", nil, Options{Components: 1}},
		{"zero components", [][]float64{pt}, Options{}},
		{"negative components", [][]float64{pt}, Options{Components: -3}},
		{"zero-dimensional", [][]float64{{}}, Options{Components: 1}},
		{"mismatched dims", [][]float64{{1, 2}, {3}}, Options{Components: 1}},
		{"fewer samples than components", [][]float64{pt, {3, 4}}, Options{Components: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Train(tc.data, tc.opts)
			if !errors.Is(err, ErrTraining) {
				t.Fatalf("err = %v, want ErrTraining", err)
			}
			if m != nil {
				t.Error("model returned alongside error")
			}
		})
	}
}

// TestTrainDegenerateData covers inputs with singular empirical
// covariance: training must still converge (via the regularization
// floor) and scoring must stay NaN-free — the failure mode the online
// loop cannot tolerate.
func TestTrainDegenerateData(t *testing.T) {
	t.Run("all identical points", func(t *testing.T) {
		data := make([][]float64, 40)
		for i := range data {
			data[i] = []float64{3, -1, 7}
		}
		m, err := Train(data, Options{Components: 2, Restarts: 2})
		if err != nil {
			t.Fatal(err)
		}
		at, err := m.LogProb([]float64{3, -1, 7})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(at) {
			t.Error("LogProb at the data point is NaN")
		}
		far, err := m.LogProb([]float64{300, 100, -700})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(far) {
			t.Error("LogProb far from the data is NaN")
		}
		if !(far < at) {
			t.Errorf("far point scored %v, data point %v; want far < at", far, at)
		}
	})
	t.Run("duplicated distinct points", func(t *testing.T) {
		var data [][]float64
		for i := 0; i < 30; i++ {
			data = append(data, []float64{0, 0}, []float64{10, 10})
		}
		m, err := Train(data, Options{Components: 2, Restarts: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range [][]float64{{0, 0}, {10, 10}, {5, 5}} {
			lp, err := m.LogProb(p)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(lp) {
				t.Errorf("LogProb(%v) is NaN", p)
			}
		}
	})
	t.Run("single sample single component", func(t *testing.T) {
		m, err := Train([][]float64{{2, 4}}, Options{Components: 1})
		if err != nil {
			t.Fatal(err)
		}
		lp, err := m.LogProb([]float64{2, 4})
		if err != nil || math.IsNaN(lp) {
			t.Errorf("LogProb = %v, %v", lp, err)
		}
	})
}

// sameModel asserts two trained mixtures are bitwise identical in their
// parameters and in the scores they assign.
func sameModel(t *testing.T, label string, a, b *Model, probes [][]float64) {
	t.Helper()
	if len(a.Components) != len(b.Components) {
		t.Fatalf("%s: component counts %d vs %d", label, len(a.Components), len(b.Components))
	}
	for j := range a.Components {
		ca, cb := a.Components[j], b.Components[j]
		if ca.Weight != cb.Weight {
			t.Errorf("%s: component %d weight %v vs %v", label, j, ca.Weight, cb.Weight)
		}
		for i := range ca.Mean {
			if ca.Mean[i] != cb.Mean[i] {
				t.Errorf("%s: component %d mean[%d] %v vs %v", label, j, i, ca.Mean[i], cb.Mean[i])
			}
		}
	}
	for _, p := range probes {
		la, err := a.LogProb(p)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := b.LogProb(p)
		if err != nil {
			t.Fatal(err)
		}
		if la != lb {
			t.Errorf("%s: LogProb(%v) %v vs %v", label, p, la, lb)
		}
	}
}

// TestTrainDeterminism pins the reproducibility contract: a fixed Seed
// yields the identical model across runs and across restart schedules.
func TestTrainDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var data [][]float64
	for i := 0; i < 120; i++ {
		c := float64(i%3) * 5
		data = append(data, []float64{c + 0.3*rng.NormFloat64(), -c + 0.3*rng.NormFloat64()})
	}
	opts := Options{Components: 3, Restarts: 4, Seed: 99}

	a, err := Train(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameModel(t, "repeat run", a, b, data[:10])
	requireRestartSchedule(t, data, opts)
}
