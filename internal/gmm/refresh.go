// The warm-start mixture refresh: re-fit a live model over a fresh
// window of reduced MHMs by seeding EM from the model's own parameters
// instead of k-means++ restarts. A drifted-but-close start needs only a
// few bounded iterations through the blocked training engine — no
// restarts, no seeding scans — which is what makes the refresh loop an
// order of magnitude cheaper than Train.
package gmm

// refitIter bounds Refit's EM iterations: a drifted-but-close start
// converges in a few, and the refresh loop needs a bounded stall.
const refitIter = 4

// Refit warm-starts EM from prev over data and returns the refreshed
// mixture after at most refitIter iterations, with the diagonal
// regularization derived from the data variance as in Train. prev is
// not modified; the returned model owns its storage. The component
// count and dimensionality are pinned to prev's — the warm-start
// contract shared with pca.Refresh. It is a Fit stepped to completion.
//
//mhm:deterministic
//mhmlint:ignore deadapi the one-shot form of a Refit Fit: the warm-refit tests pin their results through it
func Refit(data [][]float64, prev *Model) (*Model, error) {
	var f Fit
	if err := f.StartRefit(data, prev); err != nil {
		return nil, err
	}
	return f.run()
}
