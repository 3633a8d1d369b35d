// The warm-start mixture refresh: re-fit a live model over a fresh
// window of reduced MHMs by seeding EM from the model's own parameters
// instead of k-means++ restarts. A drifted-but-close start needs only a
// few bounded iterations through the blocked training engine — no
// restarts, no seeding scans — which is what makes the refresh loop an
// order of magnitude cheaper than Train.
package gmm

import (
	"fmt"

	"github.com/memheatmap/mhm/internal/train"
)

// refitIter bounds Refit's EM iterations: a drifted-but-close start
// converges in a few, and the refresh loop needs a bounded stall.
const refitIter = 4

// Refit warm-starts EM from prev over data and returns the refreshed
// mixture after at most refitIter iterations, with the diagonal
// regularization derived from the data variance as in Train. prev is
// not modified; the returned model owns its storage. The component
// count and dimensionality are pinned to prev's — the warm-start
// contract shared with pca.Refresh.
//
//mhm:deterministic
func Refit(data [][]float64, prev *Model) (*Model, error) {
	if prev == nil || len(prev.Components) == 0 {
		return nil, fmt.Errorf("gmm: Refit: empty model: %w", ErrTraining)
	}
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("gmm: Refit: empty window: %w", ErrTraining)
	}
	k, d := len(prev.Components), prev.Dim()
	for i, x := range data {
		if len(x) != d {
			return nil, fmt.Errorf("gmm: Refit: sample %d has dim %d, want %d: %w", i, len(x), d, ErrTraining)
		}
	}
	warm := &train.EMModel{
		K: k, D: d,
		Weights: make([]float64, k),
		Means:   make([]float64, k*d),
		Covs:    make([]float64, k*d*d),
	}
	for j := 0; j < k; j++ {
		c := &prev.Components[j]
		warm.Weights[j] = c.Weight
		copy(warm.Means[j*d:(j+1)*d], c.Mean)
		for a := 0; a < d; a++ {
			copy(warm.Covs[j*d*d+a*d:j*d*d+(a+1)*d], c.Cov.Row(a))
		}
	}
	fit, err := train.EMFit(data, nil, train.EMConfig{
		K:       k,
		MaxIter: refitIter,
		Tol:     1e-6,
		Reg:     dataReg(data),
		Warm:    warm,
	})
	if err != nil {
		return nil, fmt.Errorf("gmm: Refit: %w", err)
	}
	return modelFromFit(fit)
}
