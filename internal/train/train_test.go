package train

import (
	"math"
	"math/rand"
	"testing"

	"github.com/memheatmap/mhm/internal/mat"
)

// testData draws n samples around k separated centers plus the k seed
// means (the first k samples, mimicking a crude k-means pick).
func testData(n, d, k int, seed int64) (data, means [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	data = make([][]float64, n)
	for i := range data {
		c := i % k
		v := make([]float64, d)
		for j := range v {
			v[j] = 8*float64(c) + rng.NormFloat64()
		}
		data[i] = v
	}
	means = make([][]float64, k)
	for j := range means {
		means[j] = append([]float64(nil), data[j]...)
	}
	return data, means
}

func fitCfg(k int) EMConfig {
	return EMConfig{K: k, MaxIter: 40, Tol: 1e-6, Reg: 1e-6, InitVar: 1}
}

// TestEMIterationAllocationFree is the PR's steady-state guard: after
// newEM, a full serial EM iteration (E-step, reduction, M-step)
// performs zero heap allocations.
func TestEMIterationAllocationFree(t *testing.T) {
	data, means := testData(512, 9, 5, 3)
	e, err := newEM(data, means, fitCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	e.eStep()
	if bad := e.mStep(); bad >= 0 {
		t.Fatalf("M-step failed on component %d", bad)
	}
	allocs := testing.AllocsPerRun(10, func() {
		e.eStep()
		_ = e.sumLL()
		if bad := e.mStep(); bad >= 0 {
			t.Fatalf("M-step failed on component %d", bad)
		}
	})
	if allocs != 0 {
		t.Fatalf("EM iteration allocates %.1f times, want 0", allocs)
	}
}

// TestCholFlatMatchesMat verifies the in-place factorization against
// mat.NewCholesky bit for bit, including the log-determinant.
func TestCholFlatMatchesMat(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, d := range []int{1, 2, 5, 9} {
		// Build an SPD matrix A = B Bᵀ + I.
		a := make([]float64, d*d)
		b := make([]float64, d*d)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		am := mat.New(d, d)
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				s := 0.0
				for k := 0; k < d; k++ {
					s += b[i*d+k] * b[j*d+k]
				}
				if i == j {
					s += float64(d)
				}
				a[i*d+j] = s
				am.Set(i, j, s)
			}
		}
		want, err := mat.NewCholesky(am)
		if err != nil {
			t.Fatal(err)
		}
		l := make([]float64, d*d)
		if !cholFlat(a, l, d) {
			t.Fatalf("d=%d: cholFlat rejected an SPD matrix", d)
		}
		wl := want.L()
		for i := 0; i < d; i++ {
			for j := 0; j <= i; j++ {
				if math.Float64bits(l[i*d+j]) != math.Float64bits(wl.At(i, j)) {
					t.Fatalf("d=%d: L[%d][%d] = %v, want %v", d, i, j, l[i*d+j], wl.At(i, j))
				}
			}
		}
		if math.Float64bits(logDetFlat(l, d)) != math.Float64bits(want.LogDet()) {
			t.Fatalf("d=%d: logdet %v, want %v", d, logDetFlat(l, d), want.LogDet())
		}
		// Non-SPD input must be rejected.
		bad := make([]float64, d*d)
		bad[0] = -1
		if cholFlat(bad, l, d) {
			t.Fatalf("d=%d: cholFlat accepted a negative pivot", d)
		}
	}
}

// TestFsubPacked8MatchesScalar verifies the eight-lane kernel against
// the scalar subtraction sequence bit for bit.
func TestFsubPacked8MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, rows := range []int{0, 1, 3, 8, 17} {
		row := make([]float64, rows)
		packed := make([]float64, rows*8)
		for i := range row {
			row[i] = rng.NormFloat64()
		}
		for i := range packed {
			packed[i] = rng.NormFloat64()
		}
		var got, want [8]float64
		for lane := 0; lane < 8; lane++ {
			got[lane] = rng.NormFloat64()
			want[lane] = got[lane]
		}
		fsubPacked8(row, packed, &got)
		for lane := 0; lane < 8; lane++ {
			s := want[lane]
			for i, r := range row {
				s -= r * packed[i*8+lane]
			}
			want[lane] = s
		}
		for lane := 0; lane < 8; lane++ {
			if math.Float64bits(got[lane]) != math.Float64bits(want[lane]) {
				t.Fatalf("rows=%d lane %d: %v, want %v", rows, lane, got[lane], want[lane])
			}
		}
	}
}

// TestEMFitRejectsBadInput covers the argument contract.
func TestEMFitRejectsBadInput(t *testing.T) {
	data, means := testData(10, 2, 2, 1)
	if _, err := EMFit(nil, means, fitCfg(2)); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := EMFit(data, means[:1], fitCfg(2)); err == nil {
		t.Fatal("mismatched initial means accepted")
	}
	if _, err := EMFit(data, means, fitCfg(0)); err == nil {
		t.Fatal("zero components accepted")
	}
}

// TestBuildCenteredMatchesStaged verifies the tiled build against the
// staged serial reference (the pre-engine pca.Train loops) bit for bit
// on mean and Φ, and that the variance reduction is worker-independent.
func TestBuildCenteredMatchesStaged(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, shape := range []struct{ n, l int }{
		{5, 3},
		{40, 700}, // spans two dimension tiles
		{9, 1472}, // the paper's L
	} {
		set := make([][]float64, shape.n)
		for j := range set {
			v := make([]float64, shape.l)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			set[j] = v
		}
		// Staged reference.
		wantMean := make([]float64, shape.l)
		for _, v := range set {
			for i, x := range v {
				wantMean[i] += x
			}
		}
		for i := range wantMean {
			wantMean[i] /= float64(shape.n)
		}
		wantPhi := mat.New(shape.l, shape.n)
		for j, v := range set {
			for i, x := range v {
				wantPhi.Set(i, j, x-wantMean[i])
			}
		}
		var baseVar float64
		for wi, workers := range []int{1, 2, 4, 9} {
			mean, phi, totalVar := BuildCentered(set, workers)
			for i := range mean {
				if math.Float64bits(mean[i]) != math.Float64bits(wantMean[i]) {
					t.Fatalf("l=%d workers=%d: mean[%d] = %v, want %v", shape.l, workers, i, mean[i], wantMean[i])
				}
			}
			for i := 0; i < shape.l; i++ {
				for j := 0; j < shape.n; j++ {
					if math.Float64bits(phi.At(i, j)) != math.Float64bits(wantPhi.At(i, j)) {
						t.Fatalf("l=%d workers=%d: phi[%d][%d] differs", shape.l, workers, i, j)
					}
				}
			}
			if wi == 0 {
				baseVar = totalVar
				continue
			}
			if math.Float64bits(totalVar) != math.Float64bits(baseVar) {
				t.Fatalf("l=%d workers=%d: totalVar %v, want %v", shape.l, workers, totalVar, baseVar)
			}
		}
	}
}

// TestChunksCoversRange checks the public chunk iterator contract.
func TestChunksCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 65} {
		if got, want := ChunkCount(n, 16), (n+15)/16; got != want {
			t.Fatalf("ChunkCount(%d, 16) = %d, want %d", n, got, want)
		}
		seen := make([]bool, n)
		Chunks(n, 16, 4, func(lo, hi, idx int) {
			for i := lo; i < hi; i++ {
				seen[i] = true
			}
		})
		for i, ok := range seen {
			if !ok {
				t.Fatalf("n=%d: index %d not covered", n, i)
			}
		}
	}
}

// TestEMFitGoldenBits pins every bit of one small fit's weights, means
// and covariances (in that order, flat). Its two components overlap, so every responsibility
// lies strictly inside (0, 1), and a last-bit change in any sample's
// Mahalanobis term, one lane of the eight-lane E-step included, moves
// the fitted model instead of rounding away as it does on the well
// separated testData clusters. Any drift means the E-step's or M-step's
// arithmetic order changed.
func TestEMFitGoldenBits(t *testing.T) {
	golden := []uint64{
		0x3fd7eb6d38fda06b, // 0.37374430242062456
		0x3fe40a4963812fcc, // 0.6262556975793756
		0xbfac182170d78580, // -0.05487160208191266
		0xbfd4927691794ed6, // -0.32143940168792307
		0xbfd248ec97f114da, // -0.28570093954142595
		0x3fe71f12b4d37f21, // 0.7225430995713148
		0xbfcfc64ae41a6511, // -0.2482389081749621
		0xbf87091fc575a3c4, // -0.011247871602522504
		0x3fe0f0b274262203, // 0.5293819683584505
		0xbfe518a7e061dd5d, // -0.6592597372499928
		0xbfd11d88995673a2, // -0.26742758726487115
		0xbfe518a7e061dd5c, // -0.6592597372499927
		0x3ff1b34fb3557fac, // 1.1062771802171296
		0x3fc67a038c0c351b, // 0.17559856737390409
		0xbfd11d88995673a2, // -0.26742758726487115
		0x3fc67a038c0c351b, // 0.17559856737390409
		0x3fe4f957347e4eaa, // 0.6554370904218179
		0x3ffac801fef5a7de, // 1.6738300284728136
		0x3fe0c827ac59e63c, // 0.5244329801782395
		0xbfc651a316dd3e3d, // -0.17436636558930899
		0x3fe0c827ac59e63c, // 0.5244329801782395
		0x3ff3841c5f18f9c0, // 1.2197536196468803
		0xbfd2344b2318973a, // -0.2844417422041833
		0xbfc651a316dd3e3b, // -0.17436636558930893
		0xbfd2344b2318973a, // -0.2844417422041833
		0x3ff0227fa1e86736, // 1.0084225010418328
	}
	rng := rand.New(rand.NewSource(3))
	data := make([][]float64, 32)
	for i := range data {
		data[i] = []float64{rng.NormFloat64() + float64(i%2), rng.NormFloat64(), rng.NormFloat64()}
	}
	m, err := EMFit(data, [][]float64{data[0], data[1]}, EMConfig{K: 2, MaxIter: 20, Reg: 1e-6, InitVar: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := append(append(append([]float64(nil), m.Weights...), m.Means...), m.Covs...)
	if len(got) != len(golden) {
		t.Fatalf("%d fitted values, %d golden", len(got), len(golden))
	}
	for i, v := range got {
		if math.Float64bits(v) != golden[i] {
			t.Errorf("fitted value %d = %v (bits %#016x), golden %#016x", i, v, math.Float64bits(v), golden[i])
		}
	}
}
