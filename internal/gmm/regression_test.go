package gmm

import (
	"math"
	"math/rand"
	"testing"

	"github.com/memheatmap/mhm/internal/mat"
)

// emOnceStaged is the pre-engine EM loop, kept verbatim as the
// regression reference: the E-step evaluates Responsibilities(x) AND
// LogProb(x) per sample (computing every component density twice), the
// M-step allocates fresh covariance storage per component per
// iteration, and a dead component is re-seeded by an O(n) LogProb
// rescan against the half-updated model. The engine fit must match it
// bit for bit whenever no component dies.
func emOnceStaged(data [][]float64, k, maxIter int, tol, reg float64, rng *rand.Rand) (*Model, float64, error) {
	n := len(data)
	d := len(data[0])
	means := kmeansSeed(data, k, rng)

	model := &Model{Components: make([]Component, k)}
	v := dataVariance(data)
	if v <= 0 {
		v = 1
	}
	for j := range model.Components {
		cov := mat.New(d, d)
		for i := 0; i < d; i++ {
			cov.Set(i, i, v+reg)
		}
		model.Components[j] = Component{
			Weight: 1 / float64(k),
			Mean:   means[j],
			Cov:    cov,
		}
		if err := model.Components[j].prepare(); err != nil {
			return nil, 0, err
		}
	}

	resp := make([][]float64, n)
	prevLL := math.Inf(-1)
	for iter := 0; iter < maxIter; iter++ {
		ll := 0.0
		for i, x := range data {
			r, err := model.Responsibilities(x)
			if err != nil {
				return nil, 0, err
			}
			resp[i] = r
			lp, err := model.LogProb(x)
			if err != nil {
				return nil, 0, err
			}
			ll += lp
		}
		if iter > 0 && ll-prevLL < tol {
			prevLL = ll
			break
		}
		prevLL = ll

		for j := 0; j < k; j++ {
			nj := 0.0
			for i := range data {
				nj += resp[i][j]
			}
			if nj < 1e-10 {
				worstI, worstLP := 0, math.Inf(1)
				for i, x := range data {
					lp, err := model.LogProb(x)
					if err != nil {
						return nil, 0, err
					}
					if lp < worstLP {
						worstI, worstLP = i, lp
					}
				}
				copy(model.Components[j].Mean, data[worstI])
				model.Components[j].Weight = 1 / float64(n)
				continue
			}
			c := &model.Components[j]
			c.Weight = nj / float64(n)
			for cdim := range c.Mean {
				c.Mean[cdim] = 0
			}
			for i, x := range data {
				w := resp[i][j]
				for cdim, v := range x {
					c.Mean[cdim] += w * v
				}
			}
			for cdim := range c.Mean {
				c.Mean[cdim] /= nj
			}
			cov := mat.New(d, d)
			diff := make([]float64, d)
			for i, x := range data {
				w := resp[i][j]
				if mat.IsZero(w) {
					continue
				}
				for cdim := range x {
					diff[cdim] = x[cdim] - c.Mean[cdim]
				}
				for a := 0; a < d; a++ {
					wa := w * diff[a]
					row := cov.Row(a)
					for b := 0; b < d; b++ {
						row[b] += wa * diff[b]
					}
				}
			}
			for a, s := 0, 1/nj; a < d; a++ {
				row := cov.Row(a)
				for b := range row {
					row[b] *= s
				}
			}
			for a := 0; a < d; a++ {
				cov.Set(a, a, cov.At(a, a)+reg)
			}
			c.Cov = cov
			if err := c.prepare(); err != nil {
				return nil, 0, err
			}
		}
	}
	return model, prevLL, nil
}

// blobs draws n samples around k well-separated centers in d dims.
func blobs(n, d, k int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		c := i % k
		v := make([]float64, d)
		for j := range v {
			v[j] = 10*float64(c) + rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

// requireSameFit compares two (model, ll) pairs bitwise.
func requireSameFit(t *testing.T, tag string, a, b *Model, lla, llb float64) {
	t.Helper()
	if math.Float64bits(lla) != math.Float64bits(llb) {
		t.Fatalf("%s: log-likelihood differs: %v vs %v", tag, lla, llb)
	}
	if len(a.Components) != len(b.Components) {
		t.Fatalf("%s: component counts differ: %d vs %d", tag, len(a.Components), len(b.Components))
	}
	for j := range a.Components {
		ca, cb := &a.Components[j], &b.Components[j]
		if math.Float64bits(ca.Weight) != math.Float64bits(cb.Weight) {
			t.Fatalf("%s: component %d weight %v vs %v", tag, j, ca.Weight, cb.Weight)
		}
		for i := range ca.Mean {
			if math.Float64bits(ca.Mean[i]) != math.Float64bits(cb.Mean[i]) {
				t.Fatalf("%s: component %d mean[%d] %v vs %v", tag, j, i, ca.Mean[i], cb.Mean[i])
			}
		}
		for r := 0; r < ca.Cov.Rows(); r++ {
			ra, rb := ca.Cov.Row(r), cb.Cov.Row(r)
			for cc := range ra {
				if math.Float64bits(ra[cc]) != math.Float64bits(rb[cc]) {
					t.Fatalf("%s: component %d cov[%d][%d] %v vs %v", tag, j, r, cc, ra[cc], rb[cc])
				}
			}
		}
	}
}

// TestEngineMatchesStagedFit pins the E-step double-density fix: the
// engine computes the per-component log-density matrix once and derives
// responsibilities and the log-likelihood from it, and the fit must be
// bit-identical to the staged reference that computed the densities
// twice through separate Responsibilities/LogProb calls.
func TestEngineMatchesStagedFit(t *testing.T) {
	cases := []struct {
		n, d, k int
		seed    int64
	}{
		{60, 3, 2, 1},
		{201, 5, 3, 2}, // odd n exercises the scalar tail lanes
		{128, 9, 5, 3}, // the paper's L'=9, J=5 shape
		{7, 2, 2, 4},   // fewer samples than one SIMD block
	}
	for _, tc := range cases {
		data := blobs(tc.n, tc.d, tc.k, tc.seed)
		for _, emSeed := range []int64{1, 7, 99} {
			ref, refLL, err := emOnceStaged(data, tc.k, 50, 1e-6, 1e-6, rand.New(rand.NewSource(emSeed)))
			if err != nil {
				t.Fatalf("staged fit (n=%d d=%d k=%d seed=%d): %v", tc.n, tc.d, tc.k, emSeed, err)
			}
			got, gotLL, err := emOnce(data, tc.k, 50, 1e-6, 1e-6, 0, rand.New(rand.NewSource(emSeed)))
			if err != nil {
				t.Fatalf("engine fit (n=%d d=%d k=%d seed=%d): %v", tc.n, tc.d, tc.k, emSeed, err)
			}
			requireSameFit(t, "staged vs engine", ref, got, refLL, gotLL)
		}
	}
}

// TestTrainWorkersBitIdentical verifies the engine's determinism
// contract end to end: gmm.Train produces bitwise-equal models for
// every in-restart worker count, serial and restart-parallel alike.
func TestTrainWorkersBitIdentical(t *testing.T) {
	data := blobs(300, 6, 4, 11)
	base, err := Train(data, Options{Components: 4, Restarts: 3, Seed: 5, MaxIter: 60, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	baseLL, err := base.TotalLogLikelihood(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 8} {
		for _, parallel := range []bool{false, true} {
			m, err := Train(data, Options{
				Components: 4, Restarts: 3, Seed: 5, MaxIter: 60,
				Workers: workers, Parallel: parallel,
			})
			if err != nil {
				t.Fatalf("workers=%d parallel=%v: %v", workers, parallel, err)
			}
			ll, err := m.TotalLogLikelihood(data)
			if err != nil {
				t.Fatal(err)
			}
			requireSameFit(t, "worker-count variant", base, m, baseLL, ll)
		}
	}
}
