package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"github.com/memheatmap/mhm/internal/attack"
	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/kernelmap"
	"github.com/memheatmap/mhm/internal/memometer"
	"github.com/memheatmap/mhm/internal/pca"
	"github.com/memheatmap/mhm/internal/securecore"
	"github.com/memheatmap/mhm/internal/trace"
)

// Every device workload monitors the kernel .text segment at the paper's
// δ = 2 KB (L = 1,472 cells) over 10 ms intervals.
const (
	intervalMicros = 10_000
	granularity    = 2048
	// kernelSeed fixes the monitored kernel image: it is the platform,
	// not an input, so -seed moves only the emission noise of the
	// captures and the fleet traffic, and every seed costs the same work.
	kernelSeed = 1
	// setupRounds is how many times set-up runs; setup_s is the median.
	setupRounds = 3
	// trainWorkers bounds the training engine's goroutines, matching
	// the two busy threads every workload is limited to.
	trainWorkers = 2
	// ingestBatch is the trace.Reader.ReadBatch block, as in
	// securecore.Replay.
	ingestBatch = 256
	// quantile is the paper's θ1 decision threshold.
	quantile = 0.01
)

// scale sizes one run's inputs and models.
type scale struct {
	trainRuns   int   // clean training captures (paper: 10)
	trainMicros int64 // length of each (paper: 3 s)
	calibMicros int64 // held-out calibration capture
	components  int   // L' (paper §5.4: 9)
	restarts    int   // EM restarts (paper: 10)

	cleanMicros   int64 // replay-clean capture
	attackMicros  int64 // each attack-pipeline capture; the attack starts halfway
	refreshMicros int64 // refresh-mixed capture; the phase shift comes a third in
	refreshEvery  int   // clean intervals between refreshes

	fleetStreams int
	fleetPool    int     // pre-generated maps the streams cycle through
	fleetRate    float64 // offered intervals per second
	fleetSegment time.Duration
	fleetTrain   int
	fleetCalib   int
}

// paperScale is the benchmark's scale: the paper's §5.2 training set
// and §5.4 model, device captures of 5 to 30 s, and a 2,048-stream
// fleet at the paper's 10 ms cadence. The refresh capture is the
// shortest that holds 15 refreshes, so a run repeats it about 25 times.
func paperScale() scale {
	return scale{
		trainRuns:     10,
		trainMicros:   3_000_000,
		calibMicros:   3_000_000,
		components:    9,
		restarts:      10,
		cleanMicros:   30_000_000,
		attackMicros:  5_000_000,
		refreshMicros: 10_000_000,
		refreshEvery:  64,
		fleetStreams:  2048,
		fleetPool:     8192,
		fleetRate:     204_800,
		fleetSegment:  500 * time.Millisecond,
		fleetTrain:    512,
		fleetCalib:    256,
	}
}

// platform is the simulated monitored system a run draws its inputs
// from.
type platform struct {
	sc   scale
	seed int64
	img  *kernelmap.Image
	mcfg memometer.Config
}

func newPlatform(seed int64, sc scale) (*platform, error) {
	img, err := kernelmap.NewImage(kernelSeed)
	if err != nil {
		return nil, err
	}
	return &platform{
		sc:   sc,
		seed: seed,
		img:  img,
		mcfg: memometer.Config{
			Region:         heatmap.Def{AddrBase: img.Base, Size: img.Size, Gran: granularity},
			IntervalMicros: intervalMicros,
		},
	}, nil
}

// session builds a monitored-core run; k picks which of the run's
// captures it is, so every capture gets its own emission noise.
func (p *platform) session(sc attack.Scenario, k int64) (*securecore.Session, error) {
	return attack.BuildScenarioSession(p.img, sc, securecore.SessionConfig{
		Region:         p.mcfg.Region,
		IntervalMicros: intervalMicros,
		NoiseSeed:      p.seed*1000 + k,
	})
}

// capture records the raw bus trace of a micros-long run.
func (p *platform) capture(sc attack.Scenario, k, micros int64) ([]byte, error) {
	s, err := p.session(sc, k)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	s.Monitor.SetTraceWriter(w)
	if _, err := s.Run(micros); err != nil {
		return nil, fmt.Errorf("capture %d: %w", k, err)
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// scenario builds a catalogued scenario with its event at the given
// time.
func scenario(name string, at int64) (attack.Scenario, error) {
	e, err := attack.Find(name)
	if err != nil {
		return nil, err
	}
	return e.Build(at), nil
}

// trainingSet collects the clean training and calibration maps.
func (p *platform) trainingSet() (trainSet, calib []*heatmap.HeatMap, err error) {
	for run := 0; run < p.sc.trainRuns; run++ {
		s, err := p.session(nil, int64(run))
		if err != nil {
			return nil, nil, err
		}
		maps, err := s.Run(p.sc.trainMicros)
		if err != nil {
			return nil, nil, fmt.Errorf("training capture %d: %w", run, err)
		}
		trainSet = append(trainSet, maps...)
	}
	s, err := p.session(nil, int64(p.sc.trainRuns))
	if err != nil {
		return nil, nil, err
	}
	if calib, err = s.Run(p.sc.calibMicros); err != nil {
		return nil, nil, fmt.Errorf("calibration capture: %w", err)
	}
	return trainSet, calib, nil
}

// coreConfig is the paper-scale detector: L' = 9, J = 5, 10 restarts.
func (p *platform) coreConfig() core.Config {
	return core.Config{
		PCA:     pca.Options{Components: p.sc.components},
		GMM:     gmm.Options{Components: 5, Restarts: p.sc.restarts},
		Workers: trainWorkers,
	}
}

// setupTimes holds each set-up round's timings in seconds.
type setupTimes struct {
	total []float64 // training plus building the serving path
	train []float64 // training alone
}

// timedSetup runs set-up setupRounds times: train a detector, then
// build the serving path over it. Every round must train a bit-identical
// model (compared through the detector's serialization, which prints
// every float exactly); a round that does not is an error. It returns
// the last round's detector, whose serving path serve built last.
func timedSetup(trainFn func() (*core.Detector, error), serve func(*core.Detector) error) (*core.Detector, setupTimes, error) {
	var (
		st    setupTimes
		det   *core.Detector
		first []byte
	)
	for r := 0; r < setupRounds; r++ {
		t0 := time.Now()
		d, err := trainFn()
		if err != nil {
			return nil, st, fmt.Errorf("set-up round %d: %w", r, err)
		}
		t1 := time.Now()
		if err := serve(d); err != nil {
			return nil, st, fmt.Errorf("set-up round %d: %w", r, err)
		}
		st.train = append(st.train, t1.Sub(t0).Seconds())
		st.total = append(st.total, time.Since(t0).Seconds())

		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			return nil, st, err
		}
		if r == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			return nil, st, fmt.Errorf("set-up round %d trained a model that differs from round 0", r)
		}
		det = d
	}
	return det, st, nil
}

// stageTimes times the two training stages alone, on the inputs
// core.Train gives them, for the per-layer pca.train_s and gmm.train_s:
// the median of setupRounds runs each.
func stageTimes(vectors [][]float64, det *core.Detector, po pca.Options, gopts gmm.Options) (pcaS, gmmS float64, err error) {
	reduced, err := det.PCA.ProjectAll(vectors)
	if err != nil {
		return 0, 0, err
	}
	var ps, gs []float64
	for r := 0; r < setupRounds; r++ {
		t0 := time.Now()
		if _, err := pca.Train(vectors, po); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		if _, err := gmm.Train(reduced, gopts); err != nil {
			return 0, 0, err
		}
		ps = append(ps, t1.Sub(t0).Seconds())
		gs = append(gs, time.Since(t1).Seconds())
	}
	return median(ps), median(gs), nil
}

// sameBits reports whether two densities are bit-identical.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
