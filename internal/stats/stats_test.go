package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, err := Mean(xs)
	if err != nil {
		t.Fatal(err)
	}
	if m != 5 {
		t.Errorf("Mean = %g, want 5", m)
	}
	v, err := Variance(xs)
	if err != nil {
		t.Fatal(err)
	}
	// Sample variance with n-1: sum sq dev = 32, /7.
	if math.Abs(v-32.0/7) > 1e-12 {
		t.Errorf("Variance = %g, want %g", v, 32.0/7)
	}
	sd, err := StdDev(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sd-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("StdDev = %g", sd)
	}
}

func TestEmptyInputs(t *testing.T) {
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Mean(nil): %v", err)
	}
	if _, err := Variance(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Variance(nil): %v", err)
	}
	if _, err := StdDev(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("StdDev(nil): %v", err)
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Errorf("Quantile(nil): %v", err)
	}
}

func TestSingleObservation(t *testing.T) {
	v, err := Variance([]float64{3})
	if err != nil || v != 0 {
		t.Errorf("Variance single = %g, %v", v, err)
	}
	q, err := Quantile([]float64{3}, 0.99)
	if err != nil || q != 3 {
		t.Errorf("Quantile single = %g, %v", q, err)
	}
}

func TestQuantileKnownValues(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if _, err := Quantile(xs, -0.1); err == nil {
		t.Error("negative p accepted")
	}
	if _, err := Quantile(xs, 1.1); err == nil {
		t.Error("p > 1 accepted")
	}
	if _, err := Quantile(xs, math.NaN()); err == nil {
		t.Error("NaN p accepted")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Quantile mutated input: %v", xs)
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	// Property: quantile is monotone in p and bounded by min/max.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		prev := lo
		for p := 0.0; p <= 1.0; p += 0.1 {
			q, err := Quantile(xs, p)
			if err != nil {
				return false
			}
			if q < prev-1e-9 || q < lo-1e-9 || q > hi+1e-9 {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		w.Add(xs[i])
	}
	bm, _ := Mean(xs)
	bv, _ := Variance(xs)
	if math.Abs(w.Mean()-bm) > 1e-10 {
		t.Errorf("Welford mean %g vs batch %g", w.Mean(), bm)
	}
	if math.Abs(w.Variance()-bv) > 1e-9 {
		t.Errorf("Welford var %g vs batch %g", w.Variance(), bv)
	}
	if w.N() != 1000 {
		t.Errorf("N = %d", w.N())
	}
}

func TestWelfordSmallN(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Error("zero-value Welford not zero")
	}
	w.Add(5)
	if w.Mean() != 5 || w.Variance() != 0 {
		t.Errorf("one obs: mean=%g var=%g", w.Mean(), w.Variance())
	}
}
