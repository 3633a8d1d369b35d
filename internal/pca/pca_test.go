package pca

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/memheatmap/mhm/internal/mat"
)

// syntheticSet builds N samples in L dims lying (plus noise) in a
// k-dimensional affine subspace, the structure PCA must recover.
func syntheticSet(rng *rand.Rand, n, l, k int, noise float64) ([][]float64, [][]float64) {
	basis := make([][]float64, k)
	for b := range basis {
		basis[b] = make([]float64, l)
		for i := range basis[b] {
			basis[b][i] = rng.NormFloat64()
		}
		mat.Normalize(basis[b])
	}
	center := make([]float64, l)
	for i := range center {
		center[i] = 10 * rng.NormFloat64()
	}
	set := make([][]float64, n)
	for s := range set {
		v := append([]float64(nil), center...)
		for b := range basis {
			// Decreasing energy per direction.
			w := rng.NormFloat64() * float64(k-b) * 5
			mat.Axpy(w, basis[b], v)
		}
		for i := range v {
			v[i] += noise * rng.NormFloat64()
		}
		set[s] = v
	}
	return set, basis
}

func TestTrainRecoversSubspaceDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	set, _ := syntheticSet(rng, 200, 60, 4, 0.01)
	m, err := Train(set, Options{VarianceFraction: 0.999})
	if err != nil {
		t.Fatal(err)
	}
	_, lp := m.Dim()
	if lp != 4 {
		t.Errorf("selected %d components, want 4", lp)
	}
	if ve := m.VarianceExplained(); ve < 0.999 {
		t.Errorf("variance explained %g", ve)
	}
}

func TestFixedComponentCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	set, _ := syntheticSet(rng, 100, 40, 5, 0.1)
	m, err := Train(set, Options{Components: 9})
	if err != nil {
		t.Fatal(err)
	}
	l, lp := m.Dim()
	if l != 40 || lp != 9 {
		t.Errorf("Dim = (%d, %d), want (40, 9)", l, lp)
	}
	if len(m.Values) != 9 {
		t.Errorf("values = %d", len(m.Values))
	}
	// Eigenvalues decreasing.
	for i := 1; i < len(m.Values); i++ {
		if m.Values[i] > m.Values[i-1]+1e-9 {
			t.Errorf("values not decreasing at %d", i)
		}
	}
}

func TestComponentsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	set, _ := syntheticSet(rng, 120, 50, 6, 0.05)
	m, err := Train(set, Options{Components: 6})
	if err != nil {
		t.Fatal(err)
	}
	utu, err := mat.Mul(m.Components.T(), m.Components)
	if err != nil {
		t.Fatal(err)
	}
	dev := 0.0
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			dev = math.Max(dev, math.Abs(utu.At(i, j)-want))
		}
	}
	if dev > 1e-8 {
		t.Errorf("UᵀU deviates from I by %g", dev)
	}
}

func TestProjectionCentersTrainingMean(t *testing.T) {
	// Projecting the mean MHM gives the zero weight vector.
	rng := rand.New(rand.NewSource(4))
	set, _ := syntheticSet(rng, 80, 30, 3, 0.1)
	m, err := Train(set, Options{Components: 3})
	if err != nil {
		t.Fatal(err)
	}
	w, err := m.Project(m.Mean)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range w {
		if math.Abs(x) > 1e-9 {
			t.Errorf("w[%d] = %g, want 0", i, x)
		}
	}
}

func TestReconstructionErrorDecreasesWithComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	set, _ := syntheticSet(rng, 150, 40, 8, 0.2)
	var prev float64 = math.Inf(1)
	for _, k := range []int{1, 2, 4, 8} {
		m, err := Train(set, Options{Components: k})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, v := range set {
			e, err := m.ReconstructionError(v)
			if err != nil {
				t.Fatal(err)
			}
			sum += e
		}
		avg := sum / float64(len(set))
		if avg > prev+1e-9 {
			t.Errorf("k=%d: reconstruction error %g did not decrease from %g", k, avg, prev)
		}
		prev = avg
	}
	// With the full subspace the residual is just the noise.
	if prev > 0.5 {
		t.Errorf("full-rank residual %g too large", prev)
	}
}

func TestProjectReconstructRoundTripInSubspace(t *testing.T) {
	// Noise-free samples reconstruct exactly with k components.
	rng := rand.New(rand.NewSource(6))
	set, _ := syntheticSet(rng, 100, 30, 4, 0)
	m, err := Train(set, Options{Components: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		v := set[i]
		w, err := m.Project(v)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := m.Reconstruct(w)
		if err != nil {
			t.Fatal(err)
		}
		if d := mat.DistEuclid(v, rec); d > 1e-6*mat.Norm2(v) {
			t.Errorf("sample %d: reconstruction distance %g", i, d)
		}
	}
}

func TestTrainValidation(t *testing.T) {
	ok := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	cases := []struct {
		name string
		set  [][]float64
		opts Options
	}{
		{"too few samples", [][]float64{{1, 2}}, Options{Components: 1}},
		{"empty vectors", [][]float64{{}, {}}, Options{Components: 1}},
		{"ragged", [][]float64{{1, 2}, {3}}, Options{Components: 1}},
		{"negative components", ok, Options{Components: -1}},
		{"bad fraction", ok, Options{VarianceFraction: 1.5}},
		{"components exceed samples", ok, Options{Components: 4}},
	}
	for _, c := range cases {
		if _, err := Train(c.set, c.opts); !errors.Is(err, ErrTraining) {
			t.Errorf("%s: err = %v, want ErrTraining", c.name, err)
		}
	}
}

func TestProjectValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	set, _ := syntheticSet(rng, 50, 20, 2, 0.1)
	m, err := Train(set, Options{Components: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Project(make([]float64, 5)); !errors.Is(err, ErrTraining) {
		t.Errorf("short Project: %v", err)
	}
	if _, err := m.Reconstruct(make([]float64, 5)); !errors.Is(err, ErrTraining) {
		t.Errorf("short Reconstruct: %v", err)
	}
	if _, err := m.ProjectAll([][]float64{make([]float64, 20), make([]float64, 3)}); !errors.Is(err, ErrTraining) {
		t.Errorf("ragged ProjectAll: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	set, _ := syntheticSet(rng, 60, 25, 3, 0.1)
	m, err := Train(set, Options{Components: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Same projections from both models.
	w1, _ := m.Project(set[0])
	w2, err := m2.Project(set[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range w1 {
		if math.Abs(w1[i]-w2[i]) > 1e-12 {
			t.Errorf("projection %d differs after round trip", i)
		}
	}
	if m2.VarianceExplained() != m.VarianceExplained() {
		t.Error("variance explained changed after round trip")
	}
}

func TestLoadRejectsMalformed(t *testing.T) {
	cases := []string{
		"not json",
		`{"mean":[],"components":[],"values":[]}`,
		`{"mean":[1,2],"components":[[1],[2],[3]],"values":[0.5]}`,
		`{"mean":[1,2],"components":[[1],[2]],"values":[0.5,0.6]}`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: malformed model accepted", i)
		}
	}
}

func TestAutoSelectionCapsAtSampleCount(t *testing.T) {
	// 5 samples in 20 dims: automatic selection must not request more
	// eigenpairs than the data's rank supports.
	rng := rand.New(rand.NewSource(9))
	set := make([][]float64, 5)
	for i := range set {
		set[i] = make([]float64, 20)
		for j := range set[i] {
			set[i][j] = rng.NormFloat64()
		}
	}
	m, err := Train(set, Options{VarianceFraction: 0.99999})
	if err != nil {
		t.Fatal(err)
	}
	if _, lp := m.Dim(); lp > 5 {
		t.Errorf("selected %d components from 5 samples", lp)
	}
}

// TestTrainWorkersBitIdentical pins the training engine's determinism
// contract at the pca level: the tiled mean/Φ/variance build yields the
// same model bit for bit for every worker count, serial and parallel.
func TestTrainWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	set, _ := syntheticSet(rng, 40, 700, 5, 0.05) // spans two dimension tiles
	base, err := Train(set, Options{Components: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 9} {
		for _, parallel := range []bool{false, true} {
			m, err := Train(set, Options{Components: 5, Workers: workers, Parallel: parallel})
			if err != nil {
				t.Fatalf("workers=%d parallel=%v: %v", workers, parallel, err)
			}
			if math.Float64bits(m.TotalVariance) != math.Float64bits(base.TotalVariance) {
				t.Fatalf("workers=%d parallel=%v: total variance %v, want %v", workers, parallel, m.TotalVariance, base.TotalVariance)
			}
			for i := range base.Mean {
				if math.Float64bits(m.Mean[i]) != math.Float64bits(base.Mean[i]) {
					t.Fatalf("workers=%d parallel=%v: mean[%d] differs", workers, parallel, i)
				}
			}
			for i := range base.Values {
				if math.Float64bits(m.Values[i]) != math.Float64bits(base.Values[i]) {
					t.Fatalf("workers=%d parallel=%v: eigenvalue[%d] %v, want %v", workers, parallel, i, m.Values[i], base.Values[i])
				}
			}
			l, lp := base.Dim()
			for i := 0; i < l; i++ {
				for j := 0; j < lp; j++ {
					if math.Float64bits(m.Components.At(i, j)) != math.Float64bits(base.Components.At(i, j)) {
						t.Fatalf("workers=%d parallel=%v: component [%d][%d] differs", workers, parallel, i, j)
					}
				}
			}
		}
	}
}
