package gmm

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/memheatmap/mhm/internal/mat"
)

// sampleMixture draws n points from a ground-truth mixture of spherical
// Gaussians at the given centers.
func sampleMixture(rng *rand.Rand, n int, centers [][]float64, sigma float64) ([][]float64, []int) {
	d := len(centers[0])
	data := make([][]float64, n)
	labels := make([]int, n)
	for i := range data {
		j := rng.Intn(len(centers))
		labels[i] = j
		x := make([]float64, d)
		for c := 0; c < d; c++ {
			x[c] = centers[j][c] + sigma*rng.NormFloat64()
		}
		data[i] = x
	}
	return data, labels
}

func TestLogPDFMatchesClosedForm(t *testing.T) {
	// 1-D standard normal: ln f(0) = -0.5 ln(2π).
	c := Component{
		Weight: 1,
		Mean:   []float64{0},
		Cov:    mat.Identity(1),
	}
	got, err := c.LogPDF([]float64{0})
	if err != nil {
		t.Fatal(err)
	}
	want := -0.5 * math.Log(2*math.Pi)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("LogPDF(0) = %g, want %g", got, want)
	}
	// ln f(2) = -0.5 ln(2π) - 2.
	got, err = c.LogPDF([]float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-(want-2)) > 1e-12 {
		t.Errorf("LogPDF(2) = %g, want %g", got, want-2)
	}
	if _, err := c.LogPDF([]float64{1, 2}); !errors.Is(err, ErrTraining) {
		t.Errorf("dim mismatch: %v", err)
	}
}

func TestLogPDFDiagonalCovariance(t *testing.T) {
	cov, _ := mat.FromRows([][]float64{{4, 0}, {0, 9}})
	c := Component{Weight: 1, Mean: []float64{1, -1}, Cov: cov}
	got, err := c.LogPDF([]float64{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	// -0.5*(2 ln2π + ln36 + (4/4 + 9/9)) = -0.5*(2 ln2π + ln36 + 2)
	want := -0.5 * (2*math.Log(2*math.Pi) + math.Log(36) + 2)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("LogPDF = %g, want %g", got, want)
	}
}

func TestModelLogProbMixture(t *testing.T) {
	// Two equally weighted unit Gaussians at ±2 in 1-D; density at 0 is
	// 2 * 0.5 * N(0; 2, 1) = N(2).
	m := &Model{Components: []Component{
		{Weight: 0.5, Mean: []float64{-2}, Cov: mat.Identity(1)},
		{Weight: 0.5, Mean: []float64{2}, Cov: mat.Identity(1)},
	}}
	got, err := m.LogProb([]float64{0})
	if err != nil {
		t.Fatal(err)
	}
	want := -0.5*math.Log(2*math.Pi) - 2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("LogProb = %g, want %g", got, want)
	}
}

func TestResponsibilitiesSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 5}}
	data, _ := sampleMixture(rng, 200, centers, 1)
	m, err := Train(data, Options{Components: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		r, err := m.Responsibilities(data[i])
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range r {
			if v < 0 {
				t.Errorf("negative responsibility %g", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("responsibilities sum to %g", sum)
		}
	}
}

func TestTrainRecoversWellSeparatedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	centers := [][]float64{{0, 0, 0}, {20, 0, 0}, {0, 20, 0}}
	data, _ := sampleMixture(rng, 600, centers, 1)
	m, err := Train(data, Options{Components: 3, Restarts: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Every true center must be within 1 unit of some learned mean.
	for _, c := range centers {
		best := math.Inf(1)
		for _, comp := range m.Components {
			if d := mat.DistEuclid(c, comp.Mean); d < best {
				best = d
			}
		}
		if best > 1 {
			t.Errorf("center %v not recovered (nearest mean %.2f away)", c, best)
		}
	}
	// Weights near 1/3 each.
	for _, comp := range m.Components {
		if comp.Weight < 0.2 || comp.Weight > 0.5 {
			t.Errorf("weight %g far from 1/3", comp.Weight)
		}
	}
}

func TestWeightsSumToOneAfterTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data, _ := sampleMixture(rng, 300, [][]float64{{0, 0}, {5, 5}}, 1)
	m, err := Train(data, Options{Components: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, c := range m.Components {
		sum += c.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %g", sum)
	}
}

func TestEMImprovesOverIterations(t *testing.T) {
	// Compare 1-iteration vs converged LL on the same data and seed.
	rng := rand.New(rand.NewSource(7))
	data, _ := sampleMixture(rng, 400, [][]float64{{0, 0}, {8, 8}}, 1.5)
	early, err := Train(data, Options{Components: 2, MaxIter: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	converged, err := Train(data, Options{Components: 2, MaxIter: 200, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	llEarly, err := early.TotalLogLikelihood(data)
	if err != nil {
		t.Fatal(err)
	}
	llConv, err := converged.TotalLogLikelihood(data)
	if err != nil {
		t.Fatal(err)
	}
	if llConv < llEarly-1e-6 {
		t.Errorf("converged LL %g worse than 1-iteration LL %g", llConv, llEarly)
	}
}

func TestRestartsPickBest(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data, _ := sampleMixture(rng, 300, [][]float64{{0, 0}, {12, 0}, {0, 12}, {12, 12}}, 1)
	one, err := Train(data, Options{Components: 4, Restarts: 1, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	many, err := Train(data, Options{Components: 4, Restarts: 10, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	llOne, _ := one.TotalLogLikelihood(data)
	llMany, _ := many.TotalLogLikelihood(data)
	if llMany < llOne-1e-9 {
		t.Errorf("10 restarts LL %g worse than 1 restart LL %g", llMany, llOne)
	}
}

func TestAnomaliesScoreLowerThanNormal(t *testing.T) {
	// The detection premise: points far from all training clusters have
	// much lower density.
	rng := rand.New(rand.NewSource(11))
	data, _ := sampleMixture(rng, 500, [][]float64{{0, 0}, {10, 0}}, 1)
	m, err := Train(data, Options{Components: 2, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	var normalMin float64 = math.Inf(1)
	for _, x := range data[:100] {
		lp, err := m.LogProb(x)
		if err != nil {
			t.Fatal(err)
		}
		if lp < normalMin {
			normalMin = lp
		}
	}
	anomaly, err := m.LogProb([]float64{50, 50})
	if err != nil {
		t.Fatal(err)
	}
	if anomaly >= normalMin {
		t.Errorf("anomaly LL %g not below normal minimum %g", anomaly, normalMin)
	}
}

func TestTrainValidation(t *testing.T) {
	ok := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	cases := []struct {
		name string
		data [][]float64
		opts Options
	}{
		{"empty", nil, Options{Components: 2}},
		{"zero dim", [][]float64{{}, {}}, Options{Components: 1}},
		{"ragged", [][]float64{{1, 2}, {3}}, Options{Components: 1}},
		{"zero components", ok, Options{}},
		{"more components than samples", ok, Options{Components: 5}},
	}
	for _, c := range cases {
		if _, err := Train(c.data, c.opts); !errors.Is(err, ErrTraining) {
			t.Errorf("%s: err = %v, want ErrTraining", c.name, err)
		}
	}
}

func TestTrainDeterministicPerSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data, _ := sampleMixture(rng, 200, [][]float64{{0, 0}, {6, 6}}, 1)
	a, err := Train(data, Options{Components: 2, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(data, Options{Components: 2, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	la, _ := a.TotalLogLikelihood(data)
	lb, _ := b.TotalLogLikelihood(data)
	if la != lb {
		t.Errorf("same seed: LL %g vs %g", la, lb)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	data, _ := sampleMixture(rng, 200, [][]float64{{0, 0}, {7, 7}}, 1)
	m, err := Train(data, Options{Components: 2, Seed: 16})
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
	for i := 0; i < 10; i++ {
		a, _ := m.LogProb(data[i])
		b, err := m2.LogProb(data[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("sample %d: LogProb %g vs %g after round trip", i, a, b)
		}
	}
}

func TestLoadRejectsMalformed(t *testing.T) {
	cases := []string{
		"garbage",
		"[]",
		`[{"weight":1,"mean":[0,0],"cov":[[1,0]]}]`,
		`[{"weight":1,"mean":[0],"cov":[[0]]}]`, // non-SPD covariance
		// mixed dimensions
		`[{"weight":1,"mean":[0],"cov":[[2]]},{"weight":1,"mean":[0,0],"cov":[[1,0],[0,1]]}]`,
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSingularCovarianceRejectedInLogPDF(t *testing.T) {
	cov, _ := mat.FromRows([][]float64{{1, 1}, {1, 1}}) // rank 1
	c := Component{Weight: 1, Mean: []float64{0, 0}, Cov: cov}
	if _, err := c.LogPDF([]float64{0, 0}); !errors.Is(err, mat.ErrSingular) {
		t.Errorf("singular cov: %v", err)
	}
}

func TestIdenticalPointsTrainWithRegularization(t *testing.T) {
	// Degenerate data (all points identical) must not crash EM thanks to
	// covariance regularization.
	data := make([][]float64, 20)
	for i := range data {
		data[i] = []float64{3, 3}
	}
	m, err := Train(data, Options{Components: 2, Seed: 17, Reg: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	lp, err := m.LogProb([]float64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(lp) || math.IsInf(lp, 0) {
		t.Errorf("LogProb on degenerate fit = %g", lp)
	}
}

// TestParallelMatchesSerial checks that restarts run side by side save
// to the bytes of the serial schedule on a three-cluster mixture.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	data, _ := sampleMixture(rng, 300, [][]float64{{0, 0}, {9, 9}, {0, 9}}, 1)
	requireRestartSchedule(t, data, Options{Components: 3, Seed: 42})
}
