// The incremental eigenmemory refresh: re-derive the basis from a
// sliding-window covariance sketch, warm-starting subspace iteration
// from the live model's eigenvectors. When the window has drifted only
// incrementally since the previous fit the start block is already near
// the invariant subspace, so a handful of iterations replace the
// hundreds a cold start needs — and the covariance is applied straight
// off the sketch's raw-sample ring, never materializing Φ.
package pca

import "github.com/memheatmap/mhm/internal/train"

// Refresh runs at most refreshIter warm-started subspace iterations —
// enough for an incrementally drifted window; a cold-start-quality fit
// goes through Train instead — and seeds the oversampling block's
// random rows with refreshSeed.
const (
	refreshIter = 8
	refreshSeed = 1
)

// RefreshOptions tunes Refresh.
type RefreshOptions struct {
	// Parallel splits the block of vectors into a few contiguous ranges
	// and applies the covariance operator to each on its own goroutine;
	// results are identical to the serial run.
	Parallel bool
}

// Refresh re-fits the eigenmemory basis over the sketch's current
// window, keeping the previous model's dimensionality L' fixed — the
// warm-start contract: downstream consumers (the GMM, the packed score
// panel) see the same shapes, only refreshed values. The previous
// model is not modified; the returned model owns its storage. It is a
// Fit stepped to completion.
//
//mhm:deterministic
//mhmlint:ignore deadapi the one-shot form of a Refresh Fit: the warm-refresh goldens pin their bits through it
func Refresh(prev *Model, sk *train.Centered, opts RefreshOptions) (*Model, error) {
	var f Fit
	if err := f.StartRefresh(prev, sk, opts); err != nil {
		return nil, err
	}
	return f.run()
}
