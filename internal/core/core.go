// Package core assembles the paper's contribution: training a normal
// memory-behaviour model from memory heat maps (eigenmemory PCA + GMM)
// and classifying new MHMs against p-quantile density thresholds — the
// analysis the secure core performs each monitoring interval.
package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/obs"
	"github.com/memheatmap/mhm/internal/pca"
	"github.com/memheatmap/mhm/internal/stats"
	"github.com/memheatmap/mhm/internal/train"
)

// Errors of the detector pipeline.
var (
	// ErrConfig wraps invalid training configuration or inputs.
	ErrConfig = errors.New("core: invalid configuration")
	// ErrRegionMismatch is returned when an MHM's definition differs from
	// the one the detector was trained on, or its counts do not number
	// that definition's cells.
	ErrRegionMismatch = errors.New("core: heat map region differs from trained region")
	// ErrUnknownQuantile is returned when a threshold is requested for an
	// uncalibrated quantile.
	ErrUnknownQuantile = errors.New("core: threshold quantile not calibrated")
)

// Config tunes training. The zero value reproduces the paper's setup
// except for fields that need data-dependent defaults.
type Config struct {
	// PCA options; by default the smallest L' explaining 99.99% of
	// variance is chosen, as in the paper (§5.2).
	PCA pca.Options
	// GMM options; Components defaults to the paper's J = 5 and Restarts
	// to the paper's 10.
	GMM gmm.Options
	// Quantiles lists the p values to calibrate thresholds for; default
	// {0.005, 0.01} = θ0.5 and θ1 from the paper.
	Quantiles []float64
	// ResidualQuantiles enables the residual extension (not in the
	// paper; the eigenfaces "distance from face space" companion): for
	// each p, an MHM is also anomalous when its reconstruction RMS
	// exceeds the (1−p)-quantile of calibration residuals. This catches
	// anomalies confined to cells with no training variance, which the
	// projection alone cannot see. Empty disables the extension.
	ResidualQuantiles []float64
	// Workers bounds the goroutines the training engine uses in every
	// stage — the PCA mean/Φ build, each EM restart, and the batch
	// projection of training vectors. It seeds PCA.Workers and
	// GMM.Workers when those are unset. Trained detectors are
	// bit-identical for every worker count; zero means serial.
	Workers int
}

func (c *Config) fill() error {
	if c.GMM.Components == 0 {
		c.GMM.Components = 5
	}
	if c.GMM.Restarts == 0 {
		c.GMM.Restarts = 10
	}
	if c.Workers > 0 {
		if c.PCA.Workers == 0 {
			c.PCA.Workers = c.Workers
		}
		if c.GMM.Workers == 0 {
			c.GMM.Workers = c.Workers
		}
	}
	if len(c.Quantiles) == 0 {
		c.Quantiles = []float64{0.005, 0.01}
	}
	for _, p := range c.Quantiles {
		if p <= 0 || p >= 1 {
			return fmt.Errorf("core: quantile %g out of (0,1): %w", p, ErrConfig)
		}
	}
	for _, p := range c.ResidualQuantiles {
		if p <= 0 || p >= 1 {
			return fmt.Errorf("core: residual quantile %g out of (0,1): %w", p, ErrConfig)
		}
	}
	return nil
}

// Threshold is one calibrated decision boundary: an MHM whose log
// density falls below Theta is anomalous at expected false-positive
// rate P.
type Threshold struct {
	P     float64 `json:"p"`
	Theta float64 `json:"theta"`
}

// Detector is a trained memory-behaviour model.
type Detector struct {
	// Region is the heat-map definition the model expects.
	Region heatmap.Def
	// PCA holds the eigenmemories; GMM the mixture over reduced MHMs.
	PCA *pca.Model
	GMM *gmm.Model
	// Thresholds are sorted by P ascending.
	Thresholds []Threshold
	// ResidualThresholds (sorted by P ascending) hold the residual
	// extension's upper bounds: an MHM whose reconstruction RMS exceeds
	// Theta is anomalous at expected false-positive rate P. Empty when
	// the extension is disabled.
	ResidualThresholds []Threshold

	// Per-stage latency histograms (nil unless Instrument was called);
	// uninstrumented scoring pays one nil check per stage.
	projHist  *obs.Histogram
	scoreHist *obs.Histogram

	// scoring is the fused engine + pooled scratch (see scoring.go). A
	// pointer so Detector values stay copyable; nil only in a literal no
	// constructor built, which every scoring method rejects.
	scoring *scoring
}

// Instrument installs per-stage latency histograms on the detector:
// core.project_micros times the eigenmemory projection (Eq. 1) and
// core.score_micros the mixture density evaluation (Eq. 2). Passing a
// nil registry uninstalls instrumentation. Not safe to call while
// another goroutine is scoring.
func (d *Detector) Instrument(r *obs.Registry) {
	d.projHist = r.Histogram("core.project_micros", obs.LatencyBuckets)
	d.scoreHist = r.Histogram("core.score_micros", obs.LatencyBuckets)
}

// Train learns a detector from a training set of normal MHMs and a
// separate calibration set (also normal) used to place the θ_p
// thresholds, mirroring the paper's two-phase §5.2 procedure.
func Train(trainSet, calib []*heatmap.HeatMap, cfg Config) (*Detector, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(trainSet) < 2 {
		return nil, fmt.Errorf("core: %d training MHMs: %w", len(trainSet), ErrConfig)
	}
	if len(calib) == 0 {
		return nil, fmt.Errorf("core: empty calibration set: %w", ErrConfig)
	}
	region := trainSet[0].Def
	for i, m := range trainSet {
		if !m.Matches(region) {
			return nil, fmt.Errorf("core: training MHM %d: %w", i, ErrRegionMismatch)
		}
	}
	vectors, err := heatmap.PackVectors(trainSet)
	if err != nil {
		return nil, fmt.Errorf("core: training set: %w", err)
	}
	pcaModel, err := pca.Train(vectors, cfg.PCA)
	if err != nil {
		return nil, fmt.Errorf("core: eigenmemory training: %w", err)
	}
	reduced, err := projectAll(pcaModel, vectors, cfg.Workers)
	if err != nil {
		return nil, err
	}
	gmmModel, err := gmm.Train(reduced, cfg.GMM)
	if err != nil {
		return nil, fmt.Errorf("core: GMM training: %w", err)
	}

	rt, err := newScoring(region, pcaModel, gmmModel)
	if err != nil {
		return nil, err
	}
	d := &Detector{Region: region, PCA: pcaModel, GMM: gmmModel, scoring: rt}

	// Calibrate thresholds on the held-out normal set, batched through
	// the fused engine.
	for i, m := range calib {
		if !m.Matches(region) {
			return nil, fmt.Errorf("core: calibration MHM %d: %w", i, ErrRegionMismatch)
		}
	}
	calibVecs, err := heatmap.PackVectors(calib)
	if err != nil {
		return nil, fmt.Errorf("core: calibration set: %w", err)
	}
	densities := make([]float64, len(calib))
	if err := d.scoreVectors(densities, calibVecs); err != nil {
		return nil, fmt.Errorf("core: calibration: %w", err)
	}
	for _, p := range cfg.Quantiles {
		theta, err := stats.Quantile(densities, p)
		if err != nil {
			return nil, err
		}
		d.Thresholds = append(d.Thresholds, Threshold{P: p, Theta: theta})
	}
	sort.Slice(d.Thresholds, func(i, j int) bool { return d.Thresholds[i].P < d.Thresholds[j].P })

	if len(cfg.ResidualQuantiles) > 0 {
		residuals := make([]float64, len(calib))
		for i, m := range calib {
			r, err := d.Residual(m)
			if err != nil {
				return nil, fmt.Errorf("core: residual calibration MHM %d: %w", i, err)
			}
			residuals[i] = r
		}
		for _, p := range cfg.ResidualQuantiles {
			theta, err := stats.Quantile(residuals, 1-p)
			if err != nil {
				return nil, err
			}
			d.ResidualThresholds = append(d.ResidualThresholds, Threshold{P: p, Theta: theta})
		}
		sort.Slice(d.ResidualThresholds, func(i, j int) bool {
			return d.ResidualThresholds[i].P < d.ResidualThresholds[j].P
		})
	}
	return d, nil
}

// NewDetector assembles a detector from already-trained models with the
// fused scoring runtime installed — the constructor behind the refresh
// loop, which re-derives its models incrementally instead of calling
// Train. It fails, like Train and Load, when the models do not fuse with
// each other or with the region. Thresholds are the caller's (typically
// recalibrated on a sliding held-out window) and are sorted by P here;
// they may be empty when only raw densities are needed. The models are
// referenced, not copied, and must not be mutated afterwards.
func NewDetector(region heatmap.Def, pcaModel *pca.Model, gmmModel *gmm.Model, thresholds []Threshold) (*Detector, error) {
	rt, err := newScoring(region, pcaModel, gmmModel)
	if err != nil {
		return nil, err
	}
	d := &Detector{Region: region, PCA: pcaModel, GMM: gmmModel, scoring: rt}
	if len(thresholds) > 0 {
		d.Thresholds = append([]Threshold(nil), thresholds...)
		sort.Slice(d.Thresholds, func(i, j int) bool { return d.Thresholds[i].P < d.Thresholds[j].P })
	}
	return d, nil
}

// projChunk is the work unit of the batch projection: vectors per
// training-engine chunk.
const projChunk = 16

// projectAll projects the training vectors into eigenmemory weights —
// pca.Model.ProjectAll with a single contiguous result backing and the
// chunks spread over the engine's workers. Each vector's projection is
// independent, so the result is identical for every worker count.
func projectAll(m *pca.Model, vectors [][]float64, workers int) ([][]float64, error) {
	_, lp := m.Dim()
	flat := make([]float64, len(vectors)*lp)
	out := make([][]float64, len(vectors))
	errs := make([]error, train.ChunkCount(len(vectors), projChunk))
	train.Chunks(len(vectors), projChunk, workers, func(lo, hi, idx int) {
		for i := lo; i < hi; i++ {
			w := flat[i*lp : (i+1)*lp : (i+1)*lp]
			if err := m.ProjectInto(w, vectors[i]); err != nil {
				errs[idx] = fmt.Errorf("core: projecting MHM %d: %w", i, err)
				return
			}
			out[i] = w
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Residual returns the MHM's reconstruction RMS error — its distance
// from the learned memory subspace. The per-call path is
// allocation-free.
func (d *Detector) Residual(m *heatmap.HeatMap) (float64, error) {
	rt, err := d.runtime()
	if err != nil {
		return 0, err
	}
	if !m.Matches(d.Region) {
		return 0, fmt.Errorf("core: got %+v with %d cells, trained on %+v: %w",
			m.Def, len(m.Counts), d.Region, ErrRegionMismatch)
	}
	s := rt.pool.Get().(*detScratch)
	defer rt.pool.Put(s)
	m.VectorInto(s.vbuf)
	return d.PCA.ReconstructionErrorInto(s.w, s.rec, s.vbuf)
}

// ResidualThreshold returns the residual bound for a calibrated quantile.
func (d *Detector) ResidualThreshold(p float64) (float64, error) {
	for _, th := range d.ResidualThresholds {
		if th.P == p {
			return th.Theta, nil
		}
	}
	return 0, fmt.Errorf("core: residual p=%g: %w", p, ErrUnknownQuantile)
}

// ClassifyWithResidual combines the paper's density test with the
// residual extension: anomalous when the log density falls below θ_p OR
// the reconstruction residual exceeds the residual bound at p.
func (d *Detector) ClassifyWithResidual(m *heatmap.HeatMap, p float64) (anomalous bool, logDensity, residual float64, err error) {
	theta, err := d.Threshold(p)
	if err != nil {
		return false, 0, 0, err
	}
	rTheta, err := d.ResidualThreshold(p)
	if err != nil {
		return false, 0, 0, err
	}
	lp, err := d.LogDensity(m)
	if err != nil {
		return false, 0, 0, err
	}
	r, err := d.Residual(m)
	if err != nil {
		return false, 0, 0, err
	}
	return lp < theta || r > rTheta, lp, r, nil
}

// Dim returns (L, L'), the original and reduced dimensionalities.
func (d *Detector) Dim() (int, int) { return d.PCA.Dim() }

// LogDensity scores one MHM: mean-shift, project onto the eigenmemories,
// evaluate the mixture log density (the y-axis of the paper's Figs.
// 7/8/10).
func (d *Detector) LogDensity(m *heatmap.HeatMap) (float64, error) {
	rt, err := d.runtime()
	if err != nil {
		return 0, err
	}
	if !m.Matches(d.Region) {
		return 0, fmt.Errorf("core: got %+v with %d cells, trained on %+v: %w",
			m.Def, len(m.Counts), d.Region, ErrRegionMismatch)
	}
	s := rt.pool.Get().(*detScratch)
	defer rt.pool.Put(s)
	m.VectorInto(s.vbuf)
	return d.scoreVector(s, s.vbuf)
}

// LogDensityVector scores a raw MHM vector (length L), allocation-free
// and safe for concurrent use.
func (d *Detector) LogDensityVector(v []float64) (float64, error) {
	rt, err := d.runtime()
	if err != nil {
		return 0, err
	}
	s := rt.pool.Get().(*detScratch)
	defer rt.pool.Put(s)
	return d.scoreVector(s, v)
}

// scoreVector scores one vector with pooled scratch: the fused kernel
// normally, or the staged Into path when per-stage histograms are
// installed (so project/score timings stay separable).
func (d *Detector) scoreVector(s *detScratch, v []float64) (float64, error) {
	if d.projHist == nil && d.scoreHist == nil {
		return s.sc.Score(v)
	}
	sw := d.projHist.Start()
	err := d.PCA.ProjectInto(s.w, v)
	sw = sw.Handoff(d.scoreHist)
	if err != nil {
		return 0, err
	}
	lp, err := d.GMM.LogProbScratch(s.w, s.gs)
	sw.Stop()
	return lp, err
}

// Threshold returns θ_p for a calibrated quantile.
func (d *Detector) Threshold(p float64) (float64, error) {
	for _, th := range d.Thresholds {
		if th.P == p {
			return th.Theta, nil
		}
	}
	return 0, fmt.Errorf("core: p=%g: %w", p, ErrUnknownQuantile)
}

// Classify scores m and compares against θ_p: anomalous when the log
// density falls below the threshold.
func (d *Detector) Classify(m *heatmap.HeatMap, p float64) (anomalous bool, logDensity float64, err error) {
	theta, err := d.Threshold(p)
	if err != nil {
		return false, 0, err
	}
	lp, err := d.LogDensity(m)
	if err != nil {
		return false, 0, err
	}
	return lp < theta, lp, nil
}

// Verdict is one interval's classification result.
type Verdict struct {
	Index      int
	Start, End int64
	LogDensity float64
	// Anomalous maps quantile p -> decision.
	Anomalous map[float64]bool
}

// ClassifySeries scores a sequence of MHMs against every calibrated
// threshold — the secure core's per-interval loop.
func (d *Detector) ClassifySeries(maps []*heatmap.HeatMap) ([]Verdict, error) {
	if len(maps) == 0 {
		return nil, nil
	}
	for i, m := range maps {
		if !m.Matches(d.Region) {
			return nil, fmt.Errorf("core: interval %d: %w", i, ErrRegionMismatch)
		}
	}
	vecs, err := heatmap.PackVectors(maps)
	if err != nil {
		return nil, fmt.Errorf("core: series: %w", err)
	}
	densities := make([]float64, len(maps))
	if err := d.scoreVectors(densities, vecs); err != nil {
		return nil, fmt.Errorf("core: series: %w", err)
	}
	out := make([]Verdict, len(maps))
	for i, m := range maps {
		lp := densities[i]
		v := Verdict{Index: i, Start: m.Start, End: m.End, LogDensity: lp,
			Anomalous: make(map[float64]bool, len(d.Thresholds))}
		for _, th := range d.Thresholds {
			v.Anomalous[th.P] = lp < th.Theta
		}
		out[i] = v
	}
	return out, nil
}

// FalsePositiveRate counts the fraction of verdicts flagged at p —
// meaningful when the series is known-normal.
func FalsePositiveRate(verdicts []Verdict, p float64) float64 {
	if len(verdicts) == 0 {
		return 0
	}
	n := 0
	for _, v := range verdicts {
		if v.Anomalous[p] {
			n++
		}
	}
	return float64(n) / float64(len(verdicts))
}

// detectorJSON is the persistence wrapper; the nested models use their
// own serializations.
type detectorJSON struct {
	Region             heatmap.Def     `json:"region"`
	PCA                json.RawMessage `json:"pca"`
	GMM                json.RawMessage `json:"gmm"`
	Thresholds         []Threshold     `json:"thresholds"`
	ResidualThresholds []Threshold     `json:"residualThresholds,omitempty"`
}

// Save writes the full detector as JSON.
func (d *Detector) Save(w io.Writer) error {
	var pcaBuf, gmmBuf bytes.Buffer
	if err := d.PCA.Save(&pcaBuf); err != nil {
		return err
	}
	if err := d.GMM.Save(&gmmBuf); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(detectorJSON{
		Region:             d.Region,
		PCA:                json.RawMessage(pcaBuf.Bytes()),
		GMM:                json.RawMessage(gmmBuf.Bytes()),
		Thresholds:         d.Thresholds,
		ResidualThresholds: d.ResidualThresholds,
	})
}

// Load reads a detector produced by Save. It fails, like Train and
// NewDetector, when the models do not fuse with each other or with the
// region.
func Load(r io.Reader) (*Detector, error) {
	var dj detectorJSON
	if err := json.NewDecoder(r).Decode(&dj); err != nil {
		return nil, fmt.Errorf("core: decode detector: %w", err)
	}
	pcaModel, err := pca.Load(bytes.NewReader(dj.PCA))
	if err != nil {
		return nil, err
	}
	gmmModel, err := gmm.Load(bytes.NewReader(dj.GMM))
	if err != nil {
		return nil, err
	}
	if err := dj.Region.Validate(); err != nil {
		return nil, err
	}
	rt, err := newScoring(dj.Region, pcaModel, gmmModel)
	if err != nil {
		return nil, err
	}
	return &Detector{
		Region:             dj.Region,
		PCA:                pcaModel,
		GMM:                gmmModel,
		Thresholds:         dj.Thresholds,
		ResidualThresholds: dj.ResidualThresholds,
		scoring:            rt,
	}, nil
}
