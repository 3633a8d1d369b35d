// The eigenmemory covariance build: mean, mean-shifted Φ and total
// variance over fixed dimension tiles. Each tile owns a disjoint band
// of rows of Φ (and of the mean), so workers never contend; the only
// cross-tile quantity — the total variance — is reduced from per-tile
// partials in ascending tile index. Per-cell arithmetic keeps the
// staged order (samples folded in ascending index), so the mean and Φ
// are bit-identical to the historical serial build for every worker
// count.
package train

import "github.com/memheatmap/mhm/internal/mat"

// dimTile is the build work unit: a band of 512 heat-map cells, small
// enough to split the paper's L = 1472 across workers, large enough to
// amortize dispatch.
const dimTile = 512

// BuildCentered computes the mean vector Ψ, the L×N mean-shifted column
// matrix Φ and the total variance tr(C) = Σ‖Φ_j‖²/N of a training set
// (one sample per element, equal lengths — the caller validates). The
// result is bit-identical for every worker count. It is a CenteredBuild
// of every tile at once.
//
//mhm:deterministic
//mhmlint:ignore deadapi the one-shot form of CenteredBuild: TestBuildCenteredMatchesStaged and the sketch tests check the tiled build through it
func BuildCentered(set [][]float64, workers int) (mean []float64, phi *mat.Matrix, totalVar float64) {
	var b CenteredBuild
	b.Start(set)
	b.Tiles(b.tiles, workers)
	return b.Result()
}

// CenteredBuild is BuildCentered as a resumable job, so a caller with a
// per-interval time budget can spread the build over several intervals
// (DESIGN.md §14.4): Start sizes the outputs and each Tiles call builds
// the next dimension tiles. The tiles are BuildCentered's fixed grid,
// and the variance partials fold in ascending tile index once every
// tile is built, so the result is bit-identical to BuildCentered for
// every split and worker count.
//
// A CenteredBuild keeps Φ's storage from one build to the next and
// builds into it whenever it is large enough: every entry of Φ is
// written. Reserve sizes it ahead of the first build. Ψ is always new.
type CenteredBuild struct {
	set   [][]float64
	mean  []float64
	phi   *mat.Matrix
	back  []float64 // Φ's storage, kept between builds
	tv    []float64
	tiles int
	built int
	tile  func(idx, worker int) // prebuilt dispatch of tile built+idx
}

// Reserve sizes Φ's storage for a set of n samples of length l, so no
// build up to that size allocates it.
func (b *CenteredBuild) Reserve(l, n int) {
	if cap(b.back) < l*n {
		b.back = make([]float64, l*n)
	}
}

// Start begins a build over set.
func (b *CenteredBuild) Start(set [][]float64) {
	n, l := len(set), len(set[0])
	b.Reserve(l, n)
	b.set, b.mean, b.phi = set, make([]float64, l), mat.NewOn(l, n, b.back[:cap(b.back)])
	b.tiles, b.built = chunkCount(l, dimTile), 0
	b.tv = make([]float64, b.tiles)
	b.tile = func(idx, _ int) {
		idx += b.built
		lo := idx * dimTile
		hi := min(lo+dimTile, l)
		buildTile(b.set, b.mean, b.phi, b.tv, lo, hi, idx)
	}
}

// Tiles builds up to count more tiles on up to workers goroutines,
// joined before it returns, and reports whether every tile is built.
func (b *CenteredBuild) Tiles(count, workers int) bool {
	count = min(count, b.tiles-b.built)
	chunksWorker(count, workers, b.tile)
	b.built += count
	return b.built == b.tiles
}

// Result returns Ψ, Φ and the total variance of a finished build, and
// drops the build's references but Φ's storage: Φ is valid until the
// next Start.
func (b *CenteredBuild) Result() (mean []float64, phi *mat.Matrix, totalVar float64) {
	for _, v := range b.tv {
		totalVar += v
	}
	totalVar /= float64(len(b.set))
	mean, phi = b.mean, b.phi
	*b = CenteredBuild{back: b.back}
	return mean, phi, totalVar
}

// buildTile fills rows [lo, hi) of the mean and Φ and the tile's
// variance partial. Per cell, the mean folds samples in ascending index
// — the staged accumulation order.
func buildTile(set [][]float64, mean []float64, phi *mat.Matrix, tv []float64, lo, hi, idx int) {
	n := len(set)
	for _, v := range set {
		for i := lo; i < hi; i++ {
			mean[i] += v[i]
		}
	}
	inv := float64(n)
	for i := lo; i < hi; i++ {
		mean[i] /= inv
	}
	s := 0.0
	for i := lo; i < hi; i++ {
		row := phi.Row(i)
		m := mean[i]
		for j, v := range set {
			d := v[i] - m
			row[j] = d
			s += d * d
		}
	}
	tv[idx] = s
}
