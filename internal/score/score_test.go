package score_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/mat"
	"github.com/memheatmap/mhm/internal/pca"
	"github.com/memheatmap/mhm/internal/score"
)

// synthModel builds a random but well-conditioned eigenmemory basis and
// mixture directly from exported model fields: an orthonormalized L×L'
// basis and J SPD covariances.
func synthModel(t testing.TB, l, lp, j int, seed int64) (*pca.Model, *gmm.Model) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	// Random basis, Gram-Schmidt orthonormalized column by column.
	cols := make([][]float64, lp)
	for c := range cols {
		v := make([]float64, l)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		for _, prev := range cols[:c] {
			d := mat.Dot(prev, v)
			for i := range v {
				v[i] -= d * prev[i]
			}
		}
		mat.Normalize(v)
		cols[c] = v
	}
	comps := mat.New(l, lp)
	for c, v := range cols {
		for i, x := range v {
			comps.Set(i, c, x)
		}
	}
	mean := make([]float64, l)
	for i := range mean {
		mean[i] = 50 * rng.Float64()
	}
	p := &pca.Model{Mean: mean, Components: comps, Values: make([]float64, lp), TotalVariance: 1}

	g := &gmm.Model{}
	for c := 0; c < j; c++ {
		mu := make([]float64, lp)
		for i := range mu {
			mu[i] = 10 * rng.NormFloat64()
		}
		// SPD covariance: A Aᵀ + I.
		a := mat.New(lp, lp)
		for i := 0; i < lp; i++ {
			for k := 0; k < lp; k++ {
				a.Set(i, k, rng.NormFloat64())
			}
		}
		cov := mat.New(lp, lp)
		for i := 0; i < lp; i++ {
			for k := 0; k < lp; k++ {
				cov.Set(i, k, mat.Dot(a.Row(i), a.Row(k)))
			}
			cov.Set(i, i, cov.At(i, i)+1)
		}
		g.Components = append(g.Components, gmm.Component{
			Weight: 1 / float64(j),
			Mean:   mu,
			Cov:    cov,
		})
	}
	return p, g
}

// randomVecs draws MHM-like vectors spanning in-distribution and
// out-of-distribution mass.
func randomVecs(n, l int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, l)
		for k := range v {
			v[k] = 100 * rng.Float64() * float64(1+i%7)
		}
		out[i] = v
	}
	return out
}

// TestScoreMatchesStagedPath is the engine's ground truth: the fused
// score must match pca.Project followed by gmm.LogProb within 1e-12 on
// hundreds of held-out vectors (it is designed to be bit-identical).
func TestScoreMatchesStagedPath(t *testing.T) {
	p, g := synthModel(t, 96, 6, 4, 1)
	eng, err := score.New(p, g)
	if err != nil {
		t.Fatal(err)
	}
	s := eng.NewScorer()
	vecs := randomVecs(600, 96, 2)
	exact := 0
	for i, v := range vecs {
		w, err := p.Project(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := g.LogProb(w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Score(v)
		if err != nil {
			t.Fatal(err)
		}
		if !mat.EqTol(got, want, 1e-12) {
			t.Fatalf("vector %d: fused %v, staged %v", i, got, want)
		}
		if math.Float64bits(got) == math.Float64bits(want) {
			exact++
		}
	}
	// The kernels reproduce the staged arithmetic operation for
	// operation; hold them to bit-identity, not just tolerance.
	if exact != len(vecs) {
		t.Errorf("only %d/%d scores bit-identical to the staged path", exact, len(vecs))
	}
}

// TestScorerZeroAlloc pins the allocation contract of Score and
// ScoreCounts, on a dense and a sparse interval each.
func TestScorerZeroAlloc(t *testing.T) {
	p, g := synthModel(t, 128, 8, 5, 4)
	eng, err := score.New(p, g)
	if err != nil {
		t.Fatal(err)
	}
	s := eng.NewScorer()
	dense := randomVecs(1, 128, 5)[0]
	sparse := make([]float64, 128)
	for _, i := range []int{3, 4, 5, 40, 90, 91} {
		sparse[i] = float64(i)
	}
	for _, v := range [][]float64{dense, sparse} {
		if _, err := s.Score(v); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, err := s.Score(v); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Score allocates %.1f/op, want 0", n)
		}
	}

	full := make([]uint32, 128)
	for i := range full {
		full[i] = uint32(1 + i)
	}
	few := make([]uint32, 128)
	for _, i := range []int{3, 4, 5, 40, 90, 91} {
		few[i] = uint32(i)
	}
	for _, c := range [][]uint32{full, few} {
		if n := testing.AllocsPerRun(200, func() {
			if _, err := s.ScoreCounts(c); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ScoreCounts allocates %.1f/op, want 0", n)
		}
	}
}

// TestEngineValidation covers construction and shape errors.
func TestEngineValidation(t *testing.T) {
	p, g := synthModel(t, 32, 4, 2, 7)
	if _, err := score.New(nil, g); !errors.Is(err, score.ErrModel) {
		t.Errorf("nil pca: %v", err)
	}
	if _, err := score.New(p, nil); !errors.Is(err, score.ErrModel) {
		t.Errorf("nil gmm: %v", err)
	}
	_, gBad := synthModel(t, 32, 3, 2, 8) // mixture dim 3 != basis L'=4
	if _, err := score.New(p, gBad); !errors.Is(err, score.ErrModel) {
		t.Errorf("dim mismatch: %v", err)
	}

	eng, err := score.New(p, g)
	if err != nil {
		t.Fatal(err)
	}
	if l, lp := eng.Dim(); l != 32 || lp != 4 {
		t.Errorf("Dim = (%d, %d)", l, lp)
	}
	s := eng.NewScorer()
	if _, err := s.Score(make([]float64, 31)); !errors.Is(err, score.ErrModel) {
		t.Errorf("short vector: %v", err)
	}
}

// TestZeroWeightComponents: components the mixture would skip are
// dropped at construction; an all-dead mixture scores −Inf like LogProb.
func TestZeroWeightComponents(t *testing.T) {
	p, g := synthModel(t, 32, 4, 3, 11)
	g.Components[1].Weight = 0
	eng, err := score.New(p, g)
	if err != nil {
		t.Fatal(err)
	}
	s := eng.NewScorer()
	v := randomVecs(1, 32, 12)[0]
	w, _ := p.Project(v)
	want, err := g.LogProb(w)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Score(v)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("partial mixture: fused %v, staged %v", got, want)
	}

	for i := range g.Components {
		g.Components[i].Weight = 0
	}
	dead, err := score.New(p, g)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := dead.NewScorer().Score(v)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(lp, -1) {
		t.Errorf("dead mixture scored %v, want -Inf", lp)
	}
}

// BenchmarkScoreOccupancy times Score at L = 1,472 for L' = 6 and 9 on
// a device-like interval (46 occupied cells in short runs), on vectors
// with 10%, 25%, 30% and 50% of their cells occupied at random, and on a
// full vector. Up to 30% Score sweeps the occupied-cell list, so those
// rows show its cost climbing toward the direct sweep of the full row;
// at 50% the scan gives up early and sweeps directly.
func BenchmarkScoreOccupancy(b *testing.B) {
	cases := occupancyCases()
	rng := rand.New(rand.NewSource(5))
	occupiedAt := func(pct int) []float64 {
		v := make([]float64, occupancyL)
		for _, i := range rng.Perm(occupancyL)[:occupancyL*pct/100] {
			v[i] = float64(1 + rng.Intn(5000))
		}
		return v
	}
	rows := []struct {
		name string
		vec  []float64
	}{
		{"device-46", cases[1].vec},
		{"10pct", occupiedAt(10)},
		{"25pct", cases[2].vec},
		{"30pct", occupiedAt(30)},
		{"50pct", occupiedAt(50)},
		{"full", randomVecs(1, occupancyL, 3)[0]},
	}
	for _, lp := range []int{6, 9} {
		p, g := synthModel(b, occupancyL, lp, 5, int64(lp))
		eng, err := score.New(p, g)
		if err != nil {
			b.Fatal(err)
		}
		s := eng.NewScorer()
		for _, c := range rows {
			b.Run(fmt.Sprintf("Lp%d/%s", lp, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					d, err := s.Score(c.vec)
					if err != nil {
						b.Fatal(err)
					}
					sink = d
				}
			})
		}
	}
}

// sink keeps benchmarked results live.
var sink float64
