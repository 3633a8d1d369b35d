package refresh

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"github.com/memheatmap/mhm/internal/core"
)

// detectorBits hashes every fitted parameter a refresh produces — the
// PCA mean, basis and eigenvalues, the GMM weights, means and
// covariances, and the θ_p thresholds — as FNV-1a over the float bits.
func detectorBits(det *core.Detector) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	l, lp := det.PCA.Dim()
	put(det.PCA.Mean...)
	for i := 0; i < l; i++ {
		put(det.PCA.Components.Row(i)...)
	}
	put(det.PCA.Values...)
	put(det.PCA.TotalVariance)
	for _, c := range det.GMM.Components {
		put(c.Weight)
		put(c.Mean...)
		for i := 0; i < lp; i++ {
			put(c.Cov.Row(i)...)
		}
	}
	for _, th := range det.Thresholds {
		put(th.P, th.Theta)
	}
	return h.Sum64()
}

// TestRefreshGoldenBits pins the exact bits of a seeded refresh chain —
// three incremental refreshes, then a full rebuild, then one more
// incremental refresh off the rebuilt model — at one and two workers. Any change to the covariance
// operator, the subspace iteration, the warm EM or the θ_p
// recalibration that moves a single bit fails here.
func TestRefreshGoldenBits(t *testing.T) {
	golden := []uint64{
		0xf2fb25bfcb641232,
		0x949f9a9fcfa73bf9,
		0x8e0fda69a722c4f8,
		0x6f6bad1b3b7a2101, // full rebuild
		0x7341347c838e4dab,
	}
	wantFull := []bool{false, false, false, true, false}
	for _, workers := range []int{1, 2} {
		wl, det := fixture(t)
		r := newRefresher(t, det, Config{Window: 64, Holdout: 24, Workers: workers})
		feed(t, r, wl, det, 0, 90, false)
		for step := range golden {
			res, err := r.refresh(wantFull[step])
			if err != nil {
				t.Fatal(err)
			}
			if res.FullRebuild != wantFull[step] {
				t.Fatalf("workers=%d step %d: full rebuild %t, want %t", workers, step, res.FullRebuild, wantFull[step])
			}
			if got := detectorBits(res.Detector); got != golden[step] {
				t.Errorf("workers=%d step %d: bits %#016x, golden %#016x", workers, step, got, golden[step])
			}
			feed(t, r, wl, det, 90+40*step, 40, false)
		}
	}
}
