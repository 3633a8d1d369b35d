package score_test

import (
	"math"
	"math/rand"
	"testing"

	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/score"
)

// occupancyL is the paper's base cell count (§5.4: L = 1,472).
const occupancyL = 1472

// occupancyCase is one partly occupied MHM vector shape.
type occupancyCase struct {
	name string
	vec  []float64
	// counts reports that every entry is a non-negative integral
	// count, so the vector is also a heat map ScoreSparse can take.
	counts bool
}

// occupancyCases builds the vectors TestGoldenScoresOccupancy pins:
// one occupied cell, a device-like interval (46 cells in short runs,
// about 3% of L), 25% occupancy, the all-zero vector, and two
// adversarial shapes: device-46 with every empty cell −0, and device-46
// with 24 empty cells holding subnormal values. Both must land on the
// device-46 bits: −0 terms are no-ops, and the subnormal products
// vanish beside the counts.
func occupancyCases() []occupancyCase {
	rng := rand.New(rand.NewSource(77))
	single := make([]float64, occupancyL)
	single[731] = 412

	device := make([]float64, occupancyL)
	for n := 0; n < 46; {
		start := rng.Intn(occupancyL - 4)
		run := 1 + rng.Intn(4)
		for i := start; i < start+run && n < 46; i++ {
			if device[i] == 0 {
				device[i] = float64(1 + rng.Intn(900))
				n++
			}
		}
	}

	quarter := make([]float64, occupancyL)
	for _, i := range rng.Perm(occupancyL)[:occupancyL/4] {
		quarter[i] = float64(1 + rng.Intn(5000))
	}

	negZero := make([]float64, occupancyL)
	for i := range negZero {
		if device[i] != 0 {
			negZero[i] = device[i]
		} else {
			negZero[i] = math.Copysign(0, -1)
		}
	}

	subnormal := append([]float64(nil), device...)
	for k, i := range rng.Perm(occupancyL)[:24] {
		switch k % 3 {
		case 0:
			subnormal[i] = 5e-324 // smallest subnormal
		case 1:
			subnormal[i] = -2.5e-310
		default:
			subnormal[i] = 1e-315
		}
	}

	return []occupancyCase{
		{"single-cell", single, true},
		{"device-46", device, true},
		{"quarter", quarter, true},
		{"all-zero", make([]float64, occupancyL), true},
		{"negative-zero", negZero, false},
		{"subnormal", subnormal, false},
	}
}

// TestGoldenScoresOccupancy pins exact score bits for partly occupied
// vectors at every eigenmemory count whose row grouping differs, so the
// zero-skipping projection has to reproduce the full ascending sweep on
// the shapes real intervals take, not only on fully occupied ones. The
// bits were recorded from the full single-chain sweep. Score, ScoreBatch
// (both the eight-vector packed blocks and the remainder) and, for
// integral vectors, ScoreSparse on the run-length form must all land on
// them.
func TestGoldenScoresOccupancy(t *testing.T) {
	golden := map[int][]uint64{
		1: {
			0xc014b5f2527ee9c4, // single-cell -5.177682198520817
			0xc01530cc4b9926f2, // device-46 -5.297654324743904
			0xc110fc8fa77aa683, // quarter -278307.9135538118
			0xc010b72192c6e893, // all-zero -4.178839009657298
			0xc01530cc4b9926f2, // negative-zero -5.297654324743904
			0xc01530cc4b9926f2, // subnormal -5.297654324743904
		},
		2: {
			0xc074c3d5150bb34f, // single-cell -332.2395220238731
			0xc0a18d75e07d2d63, // device-46 -2246.730228339949
			0xc0fc5e887e718cb8, // quarter -116200.53087000817
			0xc076d3e753128e57, // all-zero -365.2439757084698
			0xc0a18d75e07d2d63, // negative-zero -2246.730228339949
			0xc0a18d75e07d2d63, // subnormal -2246.730228339949
		},
		3: {
			0xc07d412a2d4c273e, // single-cell -468.07279710528735
			0xc0b3af720bd30c32, // device-46 -5039.445492926099
			0xc139b0eb1d0f0202, // quarter -1.6836911135102515e+06
			0xc0804ebdf51c04c9, // all-zero -521.8427526654206
			0xc0b3af720bd30c32, // negative-zero -5039.445492926099
			0xc0b3af720bd30c32, // subnormal -5039.445492926099
		},
		5: {
			0xc0578169094421c0, // single-cell -94.02203590062618
			0xc0b5946d8c0f287a, // device-46 -5524.427918383963
			0xc1315d4de566f5e1, // quarter -1.137997896102302e+06
			0xc05233fcf53fdf76, // all-zero -72.81231433141315
			0xc0b5946d8c0f287a, // negative-zero -5524.427918383963
			0xc0b5946d8c0f287a, // subnormal -5524.427918383963
		},
		6: {
			0xc07af1b944ae6a70, // single-cell -431.1077315152279
			0xc0a1cfa43b4476e4, // device-46 -2279.820764674676
			0xc134ca53a262d5d8, // quarter -1.3625156343206074e+06
			0xc068dc4a098130d6, // all-zero -198.88403773529598
			0xc0a1cfa43b4476e4, // negative-zero -2279.820764674676
			0xc0a1cfa43b4476e4, // subnormal -2279.820764674676
		},
		8: {
			0xc08f62b07f9e453b, // single-cell -1004.336180912483
			0xc0c42df2ccb613fe, // device-46 -10331.896872291338
			0xc141e15e5c9e851c, // quarter -2.343612723587645e+06
			0xc086a988170668eb, // all-zero -725.1914501667756
			0xc0c42df2ccb613fe, // negative-zero -10331.896872291338
			0xc0c42df2ccb613fe, // subnormal -10331.896872291338
		},
		9: {
			0xc089e540cf36fef2, // single-cell -828.6566452309182
			0xc0b546ff086114ed, // device-46 -5446.996221606835
			0xc1287287c3e117c3, // quarter -801091.8825766969
			0xc0825e6dc55c2aa8, // all-zero -587.8035990906255
			0xc0b546ff086114ed, // negative-zero -5446.996221606835
			0xc0b546ff086114ed, // subnormal -5446.996221606835
		},
	}
	cases := occupancyCases()
	def := heatmap.Def{AddrBase: 0, Size: occupancyL * 8, Gran: 8}
	for _, lp := range []int{1, 2, 3, 5, 6, 8, 9} {
		p, g := synthModel(t, occupancyL, lp, 5, int64(100+lp))
		eng, err := score.New(p, g)
		if err != nil {
			t.Fatal(err)
		}
		sc := eng.NewScorer()
		want := golden[lp]
		check := func(route string, i int, got float64) {
			t.Helper()
			if math.Float64bits(got) != want[i] {
				t.Errorf("L'=%d %s %s = %v (bits %#016x), golden %#016x",
					lp, cases[i].name, route, got, math.Float64bits(got), want[i])
			}
		}

		vecs := make([][]float64, 0, 2*len(cases)+2)
		for i, c := range cases {
			got, err := sc.Score(c.vec)
			if err != nil {
				t.Fatal(err)
			}
			check("Score", i, got)
			vecs = append(vecs, c.vec)
		}
		// 14 vectors: one packed block of eight, then a remainder of six.
		vecs = append(vecs, vecs...)
		vecs = append(vecs, cases[0].vec, cases[1].vec)
		dst := make([]float64, len(vecs))
		if err := sc.ScoreBatch(dst, vecs); err != nil {
			t.Fatal(err)
		}
		for b, d := range dst {
			check("ScoreBatch", b%len(cases), d)
		}

		for i, c := range cases {
			if !c.counts {
				continue
			}
			h, err := heatmap.New(def)
			if err != nil {
				t.Fatal(err)
			}
			for k, x := range c.vec {
				h.Counts[k] = uint32(x)
			}
			sp := h.Sparsify(nil)
			got, err := sc.ScoreSparse(sp.RunStart, sp.RunLen, sp.Counts)
			if err != nil {
				t.Fatal(err)
			}
			check("ScoreSparse", i, got)
		}
	}
}
