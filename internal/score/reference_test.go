package score

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/memheatmap/mhm/internal/heatmap"
)

// projectRef is the single-vector projection as one add chain per panel
// row over all L cells in ascending order, the order mat.Dot and
// pca.Model.Project use. It is the oracle the occupied-cell kernel must
// reproduce bit for bit.
func (e *Engine) projectRef(w, v []float64) {
	for j := 0; j < e.lp; j++ {
		row := e.panel[j*e.l : (j+1)*e.l]
		s := 0.0
		for i, x := range row {
			s += x * v[i]
		}
		w[j] = s - e.meanOff[j]
	}
}

// refEngine is testEngine with a two-component mixture (identity
// Cholesky factors) so scores depend on every reduced coordinate, and
// with zero mean offsets so a projection summing only subnormal terms
// stays visible in w.
func refEngine(l, lp int, seed int64) *Engine {
	e := testEngine(l, lp, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	for j := range e.meanOff {
		e.meanOff[j] = 0
	}
	for c := 0; c < 2; c++ {
		comp := component{
			mean: make([]float64, lp),
			chol: make([]float64, lp*lp),
			logW: math.Log(0.5),
			base: float64(lp) * log2Pi,
		}
		for i := 0; i < lp; i++ {
			comp.mean[i] = 10 * rng.NormFloat64()
			comp.chol[i*lp+i] = 1
		}
		e.comps = append(e.comps, comp)
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

// checkAgainstRef scores v through Score, ScoreBatch (a packed block of
// eight copies plus a remainder of one) and, for count vectors,
// ScoreSparse on the Sparsify'd map, and demands each score and each
// reduced vector match projectRef followed by mixKernel; name prefixes
// its failure messages. It reports whether Score swept v directly
// rather than through a cell list.
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

	got, err := s.Score(v)
	if err != nil {
		t.Fatal(err)
	}
	same("Score", got, s.w)
	direct = occupied(make([]float64, e.l), make([]int32, e.l), v) < 0

	vecs := make([][]float64, 9)
	for b := range vecs {
		vecs[b] = v
	}
	dst := make([]float64, len(vecs))
	if err := s.ScoreBatch(dst, vecs); err != nil {
		t.Fatal(err)
	}
	for b, d := range dst {
		same("ScoreBatch", d, s.wb[b*e.lp:(b+1)*e.lp])
	}

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
// grouping up to L' = 9: count vectors (also through ScoreSparse),
// vectors laden with NaN, ±Inf, −0 and subnormals, and vectors whose
// every term is subnormal. Both of Score's sweeps must run: the cell
// list on sparse vectors, the direct sweep on dense ones.
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
