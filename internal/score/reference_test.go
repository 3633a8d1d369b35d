package score

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/mat"
	"github.com/memheatmap/mhm/internal/pca"
)

// projectRef is the single-vector projection as one add chain per
// basis row over all L cells in ascending order, the order mat.Dot
// uses, minus the single-chain uᵀΨ. It is the oracle the occupied-cell
// kernel must reproduce bit for bit.
func (e *Engine) projectRef(w, v []float64) {
	for j := 0; j < e.lp; j++ {
		s, off := 0.0, 0.0
		for i := 0; i < e.l; i++ {
			u := e.p.Components.At(i, j)
			s += u * v[i]
			off += u * e.p.Mean[i]
		}
		w[j] = s - off
	}
}

// sameBits is the equality contract of these tests: exact bit identity
// for every non-NaN value (covering signed zeros, infinities and
// subnormals), and NaN-for-NaN agreement without comparing payloads.
// IEEE NaN payload propagation depends on operand order, which the
// compiler is free to pick, so payload-exact NaN equality is not a
// property any kernel can promise — and trained models guarantee
// finite bases and vectors, so NaN results never arise outside
// adversarial tests like these.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// specialValue mixes in the adversarial float64s the bit-identity
// contract must survive: signed zeros, infinities, NaN, subnormals.
func specialValue(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return math.NaN()
	case 5:
		return 5e-324 // smallest subnormal
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
}

// refEngine builds a small engine over a deterministic finite basis, as
// trained models guarantee, with a zero mean Ψ so a projection summing
// only subnormal terms stays visible in w, and a two-component mixture
// with identity covariances so scores depend on every reduced
// coordinate.
func refEngine(l, lp int, seed int64) *Engine {
	rng := rand.New(rand.NewSource(seed))
	comps := mat.New(l, lp)
	for j := 0; j < lp; j++ {
		for i := 0; i < l; i++ {
			comps.Set(i, j, rng.NormFloat64())
		}
	}
	p := &pca.Model{Mean: make([]float64, l), Components: comps, Values: make([]float64, lp)}
	rng = rand.New(rand.NewSource(seed + 1))
	g := &gmm.Model{}
	for c := 0; c < 2; c++ {
		mean := make([]float64, lp)
		for i := range mean {
			mean[i] = 10 * rng.NormFloat64()
		}
		g.Components = append(g.Components, gmm.Component{Weight: 0.5, Mean: mean, Cov: mat.Identity(lp)})
	}
	e, err := New(p, g)
	if err != nil {
		panic(err)
	}
	return e
}

// Vector families for the reference tests.
const (
	famCounts    = iota // integral cell counts; empty cells +0
	famSpecial          // NaN, ±Inf, subnormals, wide magnitudes; empty cells ±0
	famSubnormal        // subnormal values only; empty cells ±0
	numFamilies
)

// occupancyVec returns a length-l vector of the given family with
// exactly occ cells drawn as occupied (a special value may itself be
// ±0, leaving its cell empty).
func occupancyVec(rng *rand.Rand, l, occ, family int) []float64 {
	v := make([]float64, l)
	if family != famCounts {
		for i := range v {
			if rng.Intn(2) == 0 {
				v[i] = math.Copysign(0, -1)
			}
		}
	}
	for _, i := range rng.Perm(l)[:occ] {
		switch family {
		case famCounts:
			v[i] = float64(1 + rng.Intn(1<<20))
		case famSpecial:
			v[i] = specialValue(rng)
		default:
			v[i] = math.Float64frombits(1 + uint64(rng.Int63n(1<<52-1))) // (0, 2^-1022)
			if rng.Intn(2) == 0 {
				v[i] = -v[i]
			}
		}
	}
	return v
}

// checkAgainstRef scores v through Score (three times over) and, for
// count vectors, through ScoreCounts on the counts and ScoreSparse on
// the Sparsify'd map, and demands each score match projectRef followed
// by mixKernel, and each route's reduced vector match projectRef; name
// prefixes its failure messages. It reports whether Score swept v
// directly rather than through a cell list.
func checkAgainstRef(t *testing.T, name string, e *Engine, s *Scorer, v []float64, family int) (direct bool) {
	t.Helper()
	want := make([]float64, e.lp)
	e.projectRef(want, v)
	wantScore := e.mixKernel(want, make([]float64, e.lp), make([]float64, len(e.comps)))
	same := func(route string, got float64, w []float64) {
		t.Helper()
		if !sameBits(got, wantScore) {
			t.Fatalf("%s %s: score %v (bits %#x), reference %v (bits %#x)",
				name, route, got, math.Float64bits(got), wantScore, math.Float64bits(wantScore))
		}
		for j := range want {
			if !sameBits(w[j], want[j]) {
				t.Fatalf("%s %s: w[%d] = %v (bits %#x), reference %v (bits %#x)",
					name, route, j, w[j], math.Float64bits(w[j]), want[j], math.Float64bits(want[j]))
			}
		}
	}

	for range 3 {
		got, err := s.Score(v)
		if err != nil {
			t.Fatal(err)
		}
		same("Score", got, s.w)
	}
	direct = pca.ListOccupied(make([]float64, e.l), make([]int32, e.l), v) < 0

	if family != famCounts {
		return direct
	}
	h := &heatmap.HeatMap{
		Def:    heatmap.Def{Size: uint64(e.l), Gran: 1},
		Counts: make([]uint32, e.l),
	}
	for i, x := range v {
		h.Counts[i] = uint32(x)
	}
	got, err := s.ScoreCounts(h.Counts)
	if err != nil {
		t.Fatal(err)
	}
	same("ScoreCounts", got, s.w)
	sp := h.Sparsify(nil)
	got, err = s.ScoreSparse(sp.RunStart, sp.RunLen, sp.Counts)
	if err != nil {
		t.Fatal(err)
	}
	same("ScoreSparse", got, s.w)
	return direct
}

// TestScoreMatchesReference pins every single-vector route to the
// single-chain reference at every occupancy from 0 to L, for every row
// grouping up to L' = 9: count vectors (also through ScoreCounts and
// ScoreSparse), vectors laden with NaN, ±Inf, −0 and subnormals, and
// vectors whose every term is subnormal. Both of Score's sweeps must
// run: the cell list on sparse vectors, the direct sweep on dense ones.
func TestScoreMatchesReference(t *testing.T) {
	const l = 200
	rng := rand.New(rand.NewSource(31))
	for lp := 1; lp <= 9; lp++ {
		e := refEngine(l, lp, int64(lp))
		s := e.NewScorer()
		routes := map[bool]int{}
		for occ := 0; occ <= l; occ++ {
			for family := 0; family < numFamilies; family++ {
				name := fmt.Sprintf("L'=%d occupancy %d family %d", lp, occ, family)
				routes[checkAgainstRef(t, name, e, s, occupancyVec(rng, l, occ, family), family)]++
			}
		}
		if routes[false] == 0 || routes[true] == 0 {
			t.Fatalf("L'=%d: %d vectors swept by cell list, %d directly; want both routes",
				lp, routes[false], routes[true])
		}
	}
}

// FuzzScoreMatchesReference drives the same comparison over random
// shapes: cell count, eigenmemory count, occupancy and value family.
func FuzzScoreMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(1472), uint8(9), uint16(46), uint8(famCounts))
	f.Add(int64(2), uint16(300), uint8(6), uint16(300), uint8(famCounts))
	f.Add(int64(3), uint16(97), uint8(5), uint16(40), uint8(famSpecial))
	f.Add(int64(4), uint16(130), uint8(3), uint16(130), uint8(famSubnormal))
	f.Add(int64(5), uint16(1), uint8(1), uint16(1), uint8(famSpecial))
	f.Fuzz(func(t *testing.T, seed int64, l16 uint16, lp8 uint8, occ16 uint16, family8 uint8) {
		l, lp := int(l16)%2048+1, int(lp8)%12+1
		occ, family := int(occ16)%(l+1), int(family8)%numFamilies
		rng := rand.New(rand.NewSource(seed))
		e := refEngine(l, lp, seed)
		name := fmt.Sprintf("L=%d L'=%d occupancy %d family %d", l, lp, occ, family)
		checkAgainstRef(t, name, e, e.NewScorer(), occupancyVec(rng, l, occ, family), family)
	})
}
