// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5), each producing the same rows/series the paper
// reports, plus the ablation studies listed in DESIGN.md. The cmd/mhmreport
// binary and the repository benchmarks are thin wrappers over this
// package.
package experiments

import (
	"errors"
	"fmt"
	"runtime"

	"github.com/memheatmap/mhm/internal/attack"
	"github.com/memheatmap/mhm/internal/cache"
	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/kernelmap"
	"github.com/memheatmap/mhm/internal/pca"
	"github.com/memheatmap/mhm/internal/securecore"
)

// ErrExperiment wraps experiment failures.
var ErrExperiment = errors.New("experiments: failure")

// Scale fixes the data volumes of an experiment run. PaperScale
// reproduces §5; QuickScale keeps unit tests fast while exercising the
// identical code path.
type Scale struct {
	// TrainRuns is the number of independent normal captures and
	// TrainRunMicros each capture's length (paper: 10 runs x 3 s).
	TrainRuns      int
	TrainRunMicros int64
	// CalibRunMicros is the length of the held-out normal capture used
	// for θ_p calibration.
	CalibRunMicros int64
	// IntervalMicros is the monitoring interval (paper: 10 ms).
	IntervalMicros int64
	// Gran is the MHM granularity δ (paper: 2 KB).
	Gran uint64
	// PCA/GMM knobs (paper: ≥99.99% variance → L' = 9; J = 5, 10 restarts).
	PCAOptions pca.Options
	GMMOptions gmm.Options
	// Quantiles to calibrate (paper: θ0.5 and θ1).
	Quantiles []float64
	// Cache, when non-nil, moves the snoop point below an L1 model of
	// this geometry (§5.5): only misses reach the heat maps.
	Cache *cache.Config
}

// PaperScale returns the §5.2 configuration.
func PaperScale() Scale {
	return Scale{
		TrainRuns:      10,
		TrainRunMicros: 3_000_000,
		CalibRunMicros: 3_000_000,
		IntervalMicros: 10_000,
		Gran:           2048,
		PCAOptions:     pca.Options{VarianceFraction: 0.9999, Parallel: true},
		GMMOptions:     gmm.Options{Components: 5, Restarts: 10, Workers: runtime.GOMAXPROCS(0)},
		Quantiles:      []float64{0.005, 0.01},
	}
}

// QuickScale returns a reduced configuration for tests: fewer, shorter
// runs and a smaller model, same pipeline.
func QuickScale() Scale {
	return Scale{
		TrainRuns:      3,
		TrainRunMicros: 1_000_000,
		CalibRunMicros: 1_000_000,
		IntervalMicros: 10_000,
		Gran:           2048,
		PCAOptions:     pca.Options{VarianceFraction: 0.9999, MaxComponents: 16, Parallel: true},
		GMMOptions:     gmm.Options{Components: 5, Restarts: 3, Workers: runtime.GOMAXPROCS(0)},
		Quantiles:      []float64{0.005, 0.01},
	}
}

// Lab bundles the synthetic platform shared by all experiments.
type Lab struct {
	Img   *kernelmap.Image
	Scale Scale
}

// NewLab builds the platform with the paper's kernel region.
func NewLab(seed int64, scale Scale) (*Lab, error) {
	img, err := kernelmap.NewImage(seed)
	if err != nil {
		return nil, err
	}
	return &Lab{Img: img, Scale: scale}, nil
}

// sessionConfig returns the securecore configuration for a given noise
// seed.
func (l *Lab) sessionConfig(noiseSeed int64) securecore.SessionConfig {
	return securecore.SessionConfig{
		Region:         heatmap.Def{AddrBase: l.Img.Base, Size: l.Img.Size, Gran: l.Scale.Gran},
		IntervalMicros: l.Scale.IntervalMicros,
		NoiseSeed:      noiseSeed,
		Cache:          l.Scale.Cache,
	}
}

// CollectNormal captures MHMs from a clean system run of the given
// length with the given noise seed.
func (l *Lab) CollectNormal(noiseSeed int64, micros int64) ([]*heatmap.HeatMap, error) {
	s, err := attack.BuildScenarioSession(l.Img, nil, l.sessionConfig(noiseSeed))
	if err != nil {
		return nil, err
	}
	return s.Run(micros)
}

// RunScenario captures MHMs from an attacked system run.
func (l *Lab) RunScenario(sc attack.Scenario, noiseSeed int64, micros int64) ([]*heatmap.HeatMap, error) {
	s, err := attack.BuildScenarioSession(l.Img, sc, l.sessionConfig(noiseSeed))
	if err != nil {
		return nil, err
	}
	return s.Run(micros)
}

// TrainingReport summarizes §5.2's training phase.
type TrainingReport struct {
	// TrainMHMs and CalibMHMs count the collected normal heat maps
	// (paper: 3,000 training MHMs).
	TrainMHMs, CalibMHMs int
	// Cells is L (paper: 1,472); Eigenmemories is L' (paper: 9).
	Cells, Eigenmemories int
	// VarianceExplained is the retained fraction (paper: > 99.99%).
	VarianceExplained float64
	// Components is J (paper: 5); Restarts the EM restarts (paper: 10).
	Components, Restarts int
	// TrainLogLikelihood is Σ log Pr of the training set under the chosen
	// model.
	TrainLogLikelihood float64
	// Thresholds are the calibrated θ_p values.
	Thresholds []core.Threshold
}

// String renders the report.
func (r TrainingReport) String() string {
	s := fmt.Sprintf("training: N=%d MHMs (calib %d), L=%d cells, L'=%d eigenmemories (%.4f%% variance), GMM J=%d (%d restarts), LL=%.1f\n",
		r.TrainMHMs, r.CalibMHMs, r.Cells, r.Eigenmemories, 100*r.VarianceExplained,
		r.Components, r.Restarts, r.TrainLogLikelihood)
	for _, th := range r.Thresholds {
		s += fmt.Sprintf("  θ%g = %.3f (log density)\n", th.P*100, th.Theta)
	}
	return s
}

// TrainDetector runs the full §5.2 procedure: collect TrainRuns normal
// captures (noise seeds seedBase..seedBase+TrainRuns-1), train the
// eigenmemory+GMM model, calibrate θ_p on a held-out capture
// (seedBase+TrainRuns).
func (l *Lab) TrainDetector(seedBase int64) (*core.Detector, TrainingReport, error) {
	var train []*heatmap.HeatMap
	for run := 0; run < l.Scale.TrainRuns; run++ {
		maps, err := l.CollectNormal(seedBase+int64(run), l.Scale.TrainRunMicros)
		if err != nil {
			return nil, TrainingReport{}, fmt.Errorf("experiments: training run %d: %w", run, err)
		}
		train = append(train, maps...)
	}
	calib, err := l.CollectNormal(seedBase+int64(l.Scale.TrainRuns), l.Scale.CalibRunMicros)
	if err != nil {
		return nil, TrainingReport{}, fmt.Errorf("experiments: calibration run: %w", err)
	}
	det, err := core.Train(train, calib, core.Config{
		PCA:       l.Scale.PCAOptions,
		GMM:       l.Scale.GMMOptions,
		Quantiles: l.Scale.Quantiles,
	})
	if err != nil {
		return nil, TrainingReport{}, err
	}
	// Training log-likelihood for the report, as one pass through the
	// detector's batched scoring engine (Σ log Pr over the training set,
	// summed in the same order TotalLogLikelihood would).
	vecs, err := heatmap.PackVectors(train)
	if err != nil {
		return nil, TrainingReport{}, err
	}
	dens := make([]float64, len(train))
	if err := det.LogDensityBatch(dens, vecs); err != nil {
		return nil, TrainingReport{}, err
	}
	ll := 0.0
	for _, d := range dens {
		ll += d
	}
	cells, lprime := det.Dim()
	rep := TrainingReport{
		TrainMHMs:          len(train),
		CalibMHMs:          len(calib),
		Cells:              cells,
		Eigenmemories:      lprime,
		VarianceExplained:  det.PCA.VarianceExplained(),
		Components:         len(det.GMM.Components),
		Restarts:           l.Scale.GMMOptions.Restarts,
		TrainLogLikelihood: ll,
		Thresholds:         det.Thresholds,
	}
	return det, rep, nil
}
