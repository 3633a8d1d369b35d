package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"github.com/memheatmap/mhm/internal/attack"
	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/memometer"
	"github.com/memheatmap/mhm/internal/pca"
	"github.com/memheatmap/mhm/internal/securecore"
	"github.com/memheatmap/mhm/internal/trace"
)

// TrainingThroughputRow is one (stage, mode) measurement of the
// training-throughput experiment.
type TrainingThroughputRow struct {
	// Stage identifies the pipeline stage: "core.Train", "pca.Train",
	// "gmm.Train", "ingest".
	Stage string
	// Mode is "serial" or "parallel" for the model stages and
	// "per-record" or "batch" for ingest.
	Mode string
	// Millis is the mean wall-clock cost of one full stage run.
	Millis float64
	// Speedup is relative to the stage's baseline mode.
	Speedup float64
}

// TrainingThroughputResult is experiment A12: wall-clock cost of the
// training engine's stages, serial versus parallel, plus per-record
// versus batched trace ingest — with the determinism contract checked
// on the side (the serial and parallel models must be bit-identical,
// and both ingest paths must produce identical heat maps).
type TrainingThroughputResult struct {
	L, LPrime, J int
	Restarts     int
	TrainMaps    int
	Workers      int
	TraceEvents  uint64
	Rows         []TrainingThroughputRow
	// BitIdentical reports whether the serial and parallel detectors
	// agreed bit for bit and the two ingest paths produced the same maps.
	BitIdentical bool
}

// String renders the comparison.
func (r TrainingThroughputResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A12 — training engine throughput (L=%d, L'=%d, J=%d, restarts=%d, workers=%d)\n",
		r.L, r.LPrime, r.J, r.Restarts, r.Workers)
	b.WriteString("  stage       mode        wall(ms)  speedup\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s  %-10s  %8.1f  %6.2fx\n", row.Stage, row.Mode, row.Millis, row.Speedup)
	}
	fmt.Fprintf(&b, "  (%d training MHMs; ingest over %d trace events; serial/parallel bit-identical: %v)\n",
		r.TrainMaps, r.TraceEvents, r.BitIdentical)
	return b.String()
}

// TrainingThroughput measures experiment A12. The model stages run on
// the scale's training volume (paper scale: L=1472, L'=9, J=5, 10
// restarts); repeats averages each measurement. On a single-core
// machine the parallel rows simply reproduce the serial times — the
// engine's contract makes them bit-identical either way.
func (l *Lab) TrainingThroughput(seedBase int64, repeats int) (*TrainingThroughputResult, error) {
	if repeats <= 0 {
		repeats = 1
	}
	var trainSet []*heatmap.HeatMap
	for run := 0; run < l.Scale.TrainRuns; run++ {
		maps, err := l.CollectNormal(seedBase+int64(run), l.Scale.TrainRunMicros)
		if err != nil {
			return nil, fmt.Errorf("experiments: training throughput run %d: %w", run, err)
		}
		trainSet = append(trainSet, maps...)
	}
	calib, err := l.CollectNormal(seedBase+int64(l.Scale.TrainRuns), l.Scale.CalibRunMicros)
	if err != nil {
		return nil, fmt.Errorf("experiments: training throughput calibration: %w", err)
	}

	workers := runtime.GOMAXPROCS(0)
	res := &TrainingThroughputResult{
		J:            l.Scale.GMMOptions.Components,
		Restarts:     l.Scale.GMMOptions.Restarts,
		TrainMaps:    len(trainSet),
		Workers:      workers,
		BitIdentical: true,
	}

	cfgFor := func(parallel bool) core.Config {
		cfg := core.Config{
			PCA:       l.Scale.PCAOptions,
			GMM:       l.Scale.GMMOptions,
			Quantiles: l.Scale.Quantiles,
		}
		cfg.PCA.Parallel = parallel
		cfg.Workers = 1
		if parallel {
			cfg.Workers = workers
		}
		cfg.GMM.Workers = cfg.Workers
		return cfg
	}

	// Stage 1: the full model build, serial vs parallel.
	var serialDet, parallelDet *core.Detector
	serialMillis, err := timeStage(repeats, func() error {
		serialDet, err = core.Train(trainSet, calib, cfgFor(false))
		return err
	})
	if err != nil {
		return nil, err
	}
	parallelMillis, err := timeStage(repeats, func() error {
		parallelDet, err = core.Train(trainSet, calib, cfgFor(true))
		return err
	})
	if err != nil {
		return nil, err
	}
	res.L, res.LPrime = serialDet.Dim()
	for i, th := range serialDet.Thresholds {
		if math.Float64bits(parallelDet.Thresholds[i].Theta) != math.Float64bits(th.Theta) {
			res.BitIdentical = false
		}
	}
	res.Rows = append(res.Rows,
		TrainingThroughputRow{Stage: "core.Train", Mode: "serial", Millis: serialMillis, Speedup: 1},
		TrainingThroughputRow{Stage: "core.Train", Mode: "parallel", Millis: parallelMillis, Speedup: serialMillis / parallelMillis},
	)

	// Stage 2: the eigenmemory build alone.
	vectors, err := heatmap.PackVectors(trainSet)
	if err != nil {
		return nil, err
	}
	pcaOpts := l.Scale.PCAOptions
	pcaOpts.Parallel = false
	pcaOpts.Workers = 1
	pcaSerial, err := timeStage(repeats, func() error {
		_, err := pca.Train(vectors, pcaOpts)
		return err
	})
	if err != nil {
		return nil, err
	}
	pcaOpts.Parallel = true
	pcaOpts.Workers = workers
	pcaParallel, err := timeStage(repeats, func() error {
		_, err := pca.Train(vectors, pcaOpts)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows,
		TrainingThroughputRow{Stage: "pca.Train", Mode: "serial", Millis: pcaSerial, Speedup: 1},
		TrainingThroughputRow{Stage: "pca.Train", Mode: "parallel", Millis: pcaParallel, Speedup: pcaSerial / pcaParallel},
	)

	// Stage 3: the EM fit alone, on the serial detector's reduced set.
	reduced, err := serialDet.PCA.ProjectAll(vectors)
	if err != nil {
		return nil, err
	}
	gmmOpts := l.Scale.GMMOptions
	gmmOpts.Workers = 1
	gmmSerial, err := timeStage(repeats, func() error {
		_, err := gmm.Train(reduced, gmmOpts)
		return err
	})
	if err != nil {
		return nil, err
	}
	gmmOpts.Workers = workers
	gmmParallel, err := timeStage(repeats, func() error {
		_, err := gmm.Train(reduced, gmmOpts)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows,
		TrainingThroughputRow{Stage: "gmm.Train", Mode: "serial", Millis: gmmSerial, Speedup: 1},
		TrainingThroughputRow{Stage: "gmm.Train", Mode: "parallel", Millis: gmmParallel, Speedup: gmmSerial / gmmParallel},
	)

	// Stage 4: trace ingest, per-record vs batched replay of one capture.
	s, err := attack.BuildScenarioSession(l.Img, nil, l.sessionConfig(seedBase+900))
	if err != nil {
		return nil, err
	}
	var traceBuf bytes.Buffer
	tw := trace.NewWriter(&traceBuf)
	s.Monitor.SetTraceWriter(tw)
	if _, err := s.Run(l.Scale.TrainRunMicros); err != nil {
		return nil, err
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	res.TraceEvents = tw.Count()
	raw := traceBuf.Bytes()
	cfg := memometer.Config{
		Region:         heatmap.Def{AddrBase: l.Img.Base, Size: l.Img.Size, Gran: l.Scale.Gran},
		IntervalMicros: l.Scale.IntervalMicros,
	}

	var perRecMaps []*heatmap.HeatMap
	perRecMillis, err := timeStage(repeats, func() error {
		perRecMaps, err = replayPerRecord(raw, cfg, l.Scale.TrainRunMicros)
		return err
	})
	if err != nil {
		return nil, err
	}
	var batchMaps []*heatmap.HeatMap
	batchMillis, err := timeStage(repeats, func() error {
		batchMaps, err = securecore.Replay(trace.NewReader(bytes.NewReader(raw)), cfg, l.Scale.TrainRunMicros)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(perRecMaps) != len(batchMaps) {
		res.BitIdentical = false
	} else {
		for i := range perRecMaps {
			d, err := perRecMaps[i].L1Distance(batchMaps[i])
			if err != nil || d != 0 {
				res.BitIdentical = false
				break
			}
		}
	}
	res.Rows = append(res.Rows,
		TrainingThroughputRow{Stage: "ingest", Mode: "per-record", Millis: perRecMillis, Speedup: 1},
		TrainingThroughputRow{Stage: "ingest", Mode: "batch", Millis: batchMillis, Speedup: perRecMillis / batchMillis},
	)
	return res, nil
}

// timeStage runs fn repeats times and returns the mean wall-clock cost
// in milliseconds.
func timeStage(repeats int, fn func() error) (float64, error) {
	start := time.Now()
	for r := 0; r < repeats; r++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6 / float64(repeats), nil
}

// replayPerRecord is the pre-batching replay loop — one Reader.Read and
// one SnoopBurst per event — kept as the ingest baseline.
func replayPerRecord(raw []byte, cfg memometer.Config, endTime int64) ([]*heatmap.HeatMap, error) {
	dev := memometer.New()
	if err := dev.Configure(cfg); err != nil {
		return nil, err
	}
	var maps []*heatmap.HeatMap
	drain := func() error {
		for dev.HasPending() {
			hm, err := dev.Collect()
			if err != nil {
				return err
			}
			maps = append(maps, hm)
		}
		return nil
	}
	r := trace.NewReader(bytes.NewReader(raw))
	for {
		a, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := dev.SnoopBurst(a.Time, a.Addr, a.Count); err != nil {
			return nil, err
		}
		if err := drain(); err != nil {
			return nil, err
		}
	}
	if err := dev.Tick(endTime); err != nil {
		return nil, err
	}
	if err := drain(); err != nil {
		return nil, err
	}
	return maps, nil
}
