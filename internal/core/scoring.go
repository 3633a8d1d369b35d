package core

import (
	"fmt"
	"sync"

	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/pca"
	"github.com/memheatmap/mhm/internal/score"
)

// scoring is the detector's fused scoring runtime: the immutable engine
// plus a pool of per-call scratch, held behind a single pointer so
// Detector values stay freely copyable (benchmarks and mhmreport
// shallow-copy detectors to instrument them independently). Train, Load
// and NewDetector install it; a Detector literal has none and every
// scoring method rejects it.
type scoring struct {
	eng  *score.Engine
	pool sync.Pool // *detScratch
}

// detScratch is one pooled unit of per-call working storage.
type detScratch struct {
	sc   *score.Scorer // fused single/batch scoring
	vbuf []float64     // length L: HeatMap.VectorInto target
	w    []float64     // length L': staged projection output
	rec  []float64     // length L: residual reconstruction scratch
	gs   *gmm.Scratch  // staged density evaluation scratch
}

// newScoring builds the runtime for a trained model pair over region.
// It fails when the models do not fuse with each other (a mixture not
// fitted on the basis's L' weights, a covariance that is not SPD) or
// with the region (a basis over a different cell count).
func newScoring(region heatmap.Def, p *pca.Model, g *gmm.Model) (*scoring, error) {
	eng, err := score.New(p, g)
	if err != nil {
		return nil, fmt.Errorf("core: models do not fuse: %w: %w", err, ErrConfig)
	}
	l, lp := eng.Dim()
	if l != region.Cells() {
		return nil, fmt.Errorf("core: %d eigenmemory dims for a %d-cell region: %w", l, region.Cells(), ErrRegionMismatch)
	}
	rt := &scoring{eng: eng}
	rt.pool.New = func() any {
		return &detScratch{
			sc:   eng.NewScorer(),
			vbuf: make([]float64, l),
			w:    make([]float64, lp),
			rec:  make([]float64, l),
			gs:   g.NewScratch(),
		}
	}
	return rt, nil
}

// runtime returns the fused scoring runtime, or ErrConfig for a
// Detector literal that Train, Load or NewDetector did not build.
func (d *Detector) runtime() (*scoring, error) {
	if d.scoring == nil {
		return nil, fmt.Errorf("core: detector not built by Train, Load or NewDetector: %w", ErrConfig)
	}
	return d.scoring, nil
}

// ScoreEngine exposes the detector's fused scoring engine, from which
// callers (the fleet registry, experiment fan-outs) derive per-worker
// Scorers.
func (d *Detector) ScoreEngine() (*score.Engine, error) {
	rt, err := d.runtime()
	if err != nil {
		return nil, err
	}
	return rt.eng, nil
}

// LogDensityBatch scores a set of raw MHM vectors into dst
// (len(dst) == len(vecs)) as one blocked panel product through the
// fused engine — the fast path for calibration sweeps and offline
// evaluation. Each element is bit-identical to LogDensityVector.
func (d *Detector) LogDensityBatch(dst []float64, vecs [][]float64) error {
	if len(dst) != len(vecs) {
		return fmt.Errorf("core: batch dst length %d for %d vectors: %w", len(dst), len(vecs), ErrConfig)
	}
	return d.scoreVectors(dst, vecs)
}

// scoreVectors scores a set of raw MHM vectors into dst through the
// batch engine. Bit-identical to LogDensityVector on each element.
func (d *Detector) scoreVectors(dst []float64, vecs [][]float64) error {
	rt, err := d.runtime()
	if err != nil {
		return err
	}
	s := rt.pool.Get().(*detScratch)
	defer rt.pool.Put(s)
	return s.sc.ScoreBatch(dst, vecs)
}
