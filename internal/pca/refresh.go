// The incremental eigenmemory refresh: re-derive the basis from a
// sliding-window covariance sketch, warm-starting subspace iteration
// from the live model's eigenvectors. When the window has drifted only
// incrementally since the previous fit the start block is already near
// the invariant subspace, so a handful of iterations replace the
// hundreds a cold start needs — and the covariance is applied straight
// off the sketch's raw-sample ring, never materializing Φ.
package pca

import (
	"fmt"

	"github.com/memheatmap/mhm/internal/mat"
	"github.com/memheatmap/mhm/internal/train"
)

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
// model is not modified; the returned model owns its storage.
//
//mhm:deterministic
func Refresh(prev *Model, sk *train.Centered, opts RefreshOptions) (*Model, error) {
	if prev == nil || sk == nil {
		return nil, fmt.Errorf("pca: Refresh: nil model or sketch: %w", ErrTraining)
	}
	l, lp := prev.Dim()
	if sk.Dim() != l {
		return nil, fmt.Errorf("pca: Refresh: sketch dim %d, model dim %d: %w", sk.Dim(), l, ErrTraining)
	}
	if sk.Len() < 2 || sk.Len() < lp {
		return nil, fmt.Errorf("pca: Refresh: %d window samples for %d components: %w", sk.Len(), lp, ErrTraining)
	}
	eig, err := mat.EigenSymTopK(sk, lp, mat.TopKOptions{
		MaxIter:  refreshIter,
		Seed:     refreshSeed,
		Parallel: opts.Parallel,
		Init:     prev.Components,
	})
	if err != nil {
		return nil, fmt.Errorf("pca: Refresh: eigendecomposition: %w", err)
	}
	mean := make([]float64, l)
	copy(mean, sk.Mean())
	return &Model{
		Mean:          mean,
		Components:    eig.Vectors,
		Values:        eig.Values,
		TotalVariance: sk.TotalVar(),
	}, nil
}
