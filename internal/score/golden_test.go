package score_test

import (
	"math"
	"testing"

	"github.com/memheatmap/mhm/internal/score"
)

// TestGoldenScores pins twelve exact score bit patterns for a
// deterministic synthetic model. The kernels are pure Go with separate
// multiplies and adds in a fixed order, so these values must hold on
// every architecture — any drift means the arithmetic contract
// (multiply-then-add in ascending index order, no FMA) was broken
// somewhere.
func TestGoldenScores(t *testing.T) {
	golden := []uint64{
		0xc077d24ce8c93330, // -381.14377668946963
		0xc0c4985708291ba1, // -10544.679936541072
		0xc0b61f2f6fdab76b, // -5663.185300512104
		0xc0e198c53cc9bad7, // -36038.163670411035
		0xc0f7835b4426f3e8, // -96309.70413871075
		0xc0f981db8d20be43, // -104477.72195505448
		0xc120d29ef8628ba0, // -551247.4851268418
		0xc093202ee2a4d380, // -1224.0457864526834
		0xc0a5725619ec5ead, // -2745.168166529233
		0xc0c5c5b72aac9d52, // -11147.430989815537
		0xc0e1b368d63bf184, // -36251.276151630125
		0xc0f0eef04681202a, // -69359.01721298756
	}
	p, g := synthModel(t, 96, 5, 3, 42)
	eng, err := score.New(p, g)
	if err != nil {
		t.Fatal(err)
	}
	sc := eng.NewScorer()
	for i, v := range randomVecs(len(golden), 96, 43) {
		d, err := sc.Score(v)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(d) != golden[i] {
			t.Errorf("score %d = %v (bits %#016x), golden %#016x",
				i, d, math.Float64bits(d), golden[i])
		}
	}
}
