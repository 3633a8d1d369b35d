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

// detScratch is one pooled unit of per-call working storage. The pool
// builds only the Scorer; the residual buffers are allocated on their
// first use (forResidual), so a detector that only scores — a refresh
// candidate scoring its holdout — never allocates them.
type detScratch struct {
	sc   *score.Scorer // fused scoring
	vbuf []float64     // length L: HeatMap.VectorInto target
	w    []float64     // length L': residual projection output
	rec  []float64     // length L: residual reconstruction scratch
}

// forResidual returns a pooled unit with the residual buffers allocated.
func (rt *scoring) forResidual(s *detScratch) *detScratch {
	if s.vbuf == nil {
		l, lp := rt.eng.Dim()
		s.vbuf, s.w, s.rec = make([]float64, l), make([]float64, lp), make([]float64, l)
	}
	return s
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
	if l, _ := eng.Dim(); l != region.Cells() {
		return nil, fmt.Errorf("core: %d eigenmemory dims for a %d-cell region: %w", l, region.Cells(), ErrRegionMismatch)
	}
	rt := &scoring{eng: eng}
	rt.pool.New = func() any { return &detScratch{sc: eng.NewScorer()} }
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
// (len(dst) == len(vecs)) through one pooled Scorer — the entry for
// calibration sweeps and offline evaluation. Each element is
// bit-identical to LogDensityVector.
func (d *Detector) LogDensityBatch(dst []float64, vecs [][]float64) error {
	if len(dst) != len(vecs) {
		return fmt.Errorf("core: batch dst length %d for %d vectors: %w", len(dst), len(vecs), ErrConfig)
	}
	return d.scoreVectors(dst, vecs)
}

// scoreVectors scores a set of raw MHM vectors into dst through
// Scorer.Score. Every vector's length is checked before the first is
// scored, so on an error dst is left untouched. Bit-identical to
// LogDensityVector on each element.
func (d *Detector) scoreVectors(dst []float64, vecs [][]float64) error {
	rt, err := d.runtime()
	if err != nil {
		return err
	}
	l, _ := rt.eng.Dim()
	for i, v := range vecs {
		if len(v) != l {
			return fmt.Errorf("core: vector %d length %d, want %d: %w", i, len(v), l, score.ErrModel)
		}
	}
	s := rt.pool.Get().(*detScratch)
	defer rt.pool.Put(s)
	for i, v := range vecs {
		if dst[i], err = s.sc.Score(v); err != nil {
			return err
		}
	}
	return nil
}
