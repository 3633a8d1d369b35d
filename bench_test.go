// Package mhm_test holds the repository benchmark harness: one benchmark
// per table and figure of the paper's evaluation (§5), plus
// microbenchmarks of the pipeline stages. Run with:
//
//	go test -bench=. -benchmem
package mhm_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/experiments"
	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/kernelmap"
	"github.com/memheatmap/mhm/internal/memometer"
	"github.com/memheatmap/mhm/internal/obs"
	"github.com/memheatmap/mhm/internal/pca"
	"github.com/memheatmap/mhm/internal/trace"
	"github.com/memheatmap/mhm/internal/workload"
)

// Shared expensive fixtures, built once across benchmarks.
var (
	fixOnce sync.Once
	fixErr  error
	fixLab  *experiments.Lab
	fixDet  *core.Detector     // δ=2KB, variance-selected L'
	fixDet9 *core.Detector     // δ=2KB, L'=9 (paper's §5.4 base config)
	fixDetC *core.Detector     // δ=8KB, L'=9 (coarse config, L=368)
	fixDet5 *core.Detector     // δ=2KB, L'=5
	fixVecs [][]float64        // fresh normal vectors at δ=2KB
	fixMaps []*heatmap.HeatMap // fresh normal maps at δ=2KB
	fixVecC [][]float64        // fresh normal vectors at δ=8KB
)

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		fixLab, fixErr = experiments.NewLab(1, experiments.QuickScale())
		if fixErr != nil {
			return
		}
		if fixDet, _, fixErr = fixLab.TrainDetector(100); fixErr != nil {
			return
		}
		mk := func(gran uint64, lprime int, seedBase int64) (*core.Detector, error) {
			lab := &experiments.Lab{Img: fixLab.Img, Scale: fixLab.Scale}
			lab.Scale.Gran = gran
			lab.Scale.PCAOptions = pca.Options{Components: lprime, Parallel: true}
			d, _, err := lab.TrainDetector(seedBase)
			return d, err
		}
		if fixDet9, fixErr = mk(2048, 9, 200); fixErr != nil {
			return
		}
		if fixDetC, fixErr = mk(8192, 9, 300); fixErr != nil {
			return
		}
		if fixDet5, fixErr = mk(2048, 5, 400); fixErr != nil {
			return
		}
		fixMaps, fixErr = fixLab.CollectNormal(9999, 500_000)
		if fixErr != nil {
			return
		}
		for _, m := range fixMaps {
			fixVecs = append(fixVecs, m.Vector())
		}
		coarse := &experiments.Lab{Img: fixLab.Img, Scale: fixLab.Scale}
		coarse.Scale.Gran = 8192
		cmaps, err := coarse.CollectNormal(9999, 500_000)
		if err != nil {
			fixErr = err
			return
		}
		for _, m := range cmaps {
			fixVecC = append(fixVecC, m.Vector())
		}
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
}

// BenchmarkFig1ExampleMHM regenerates Fig. 1: capture and render one
// 10 ms MHM of the kernel .text segment.
func BenchmarkFig1ExampleMHM(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		if _, err := fixLab.Fig1(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainPipeline regenerates §5.2: full training (simulation,
// eigenmemory extraction, GMM fit, threshold calibration).
func BenchmarkTrainPipeline(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		if _, _, err := fixLab.TrainDetector(int64(1000 + i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7AppAddition regenerates Fig. 7: the 500-interval qsort
// launch/exit run classified end to end.
func BenchmarkFig7AppAddition(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		if _, err := fixLab.Fig7(fixDet, int64(700+i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Shellcode regenerates Fig. 8: the 400-interval shellcode
// run classified end to end.
func BenchmarkFig8Shellcode(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		if _, err := fixLab.Fig8(fixDet, int64(800+i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9TrafficVolume regenerates Fig. 9: the rootkit run scored
// by the traffic-volume baseline.
func BenchmarkFig9TrafficVolume(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		if _, err := fixLab.Fig9(int64(900 + i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Rootkit regenerates Fig. 10: the rootkit run scored by
// the MHM detector.
func BenchmarkFig10Rootkit(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		if _, err := fixLab.Fig10(fixDet, int64(900+i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClassify times one MHM classification, the §5.4 analysis-time
// measurement.
func benchClassify(b *testing.B, det *core.Detector, vecs [][]float64) {
	b.Helper()
	if len(vecs) == 0 {
		b.Fatal("no vectors")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.LogDensityVector(vecs[i%len(vecs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalysisTime_L1472_Lp9_J5 is the paper's base configuration
// (358 µs on its ARM secure core).
func BenchmarkAnalysisTime_L1472_Lp9_J5(b *testing.B) {
	fixtures(b)
	benchClassify(b, fixDet9, fixVecs)
}

// BenchmarkAnalysisTimeInstrumented_L1472_Lp9_J5 is the base
// configuration with live obs histograms on both stages — compare
// against BenchmarkAnalysisTime_L1472_Lp9_J5 to see the
// instrumentation overhead (budget: under 5%).
func BenchmarkAnalysisTimeInstrumented_L1472_Lp9_J5(b *testing.B) {
	fixtures(b)
	det := *fixDet9
	det.Instrument(obs.NewRegistry())
	benchClassify(b, &det, fixVecs)
}

// BenchmarkAnalysisTime_L368_Lp9_J5 is the coarse-granularity
// configuration (paper: 100 µs).
func BenchmarkAnalysisTime_L368_Lp9_J5(b *testing.B) {
	fixtures(b)
	benchClassify(b, fixDetC, fixVecC)
}

// BenchmarkAnalysisTime_L1472_Lp5_J5 is the reduced-eigenmemory
// configuration (paper: 216 µs).
func BenchmarkAnalysisTime_L1472_Lp5_J5(b *testing.B) {
	fixtures(b)
	benchClassify(b, fixDet5, fixVecs)
}

// BenchmarkScoreBatch times the blocked B=64 batch kernel on the §5.4
// base configuration; ns/op is per MHM, directly comparable to
// BenchmarkAnalysisTime_L1472_Lp9_J5 (the single-vector loop).
func BenchmarkScoreBatch(b *testing.B) {
	fixtures(b)
	eng, err := fixDet9.ScoreEngine()
	if err != nil {
		b.Fatal(err)
	}
	s := eng.NewScorer()
	const batch = 64
	vecs := make([][]float64, batch)
	for i := range vecs {
		vecs[i] = fixVecs[i%len(fixVecs)]
	}
	dst := make([]float64, batch)
	if err := s.ScoreBatch(dst, vecs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		if err := s.ScoreBatch(dst, vecs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionSimulation times the monitored-core substrate: one
// second of simulated system execution producing 100 MHMs.
func BenchmarkSessionSimulation(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		if _, err := fixLab.CollectNormal(int64(5000+i), 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemometerSnoop times the hardware model's per-burst cost.
func BenchmarkMemometerSnoop(b *testing.B) {
	dev := memometer.New()
	err := dev.Configure(memometer.Config{
		Region:         heatmap.Def{AddrBase: kernelmap.TextBase, Size: kernelmap.TextSize, Gran: 2048},
		IntervalMicros: 10_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := int64(i)
		if err := dev.SnoopBurst(t, kernelmap.TextBase+uint64(i*64)%kernelmap.TextSize, 3); err != nil {
			b.Fatal(err)
		}
		if dev.HasPending() {
			if _, err := dev.Collect(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHeatMapRecord times the MHM cell update path.
func BenchmarkHeatMapRecord(b *testing.B) {
	m, err := heatmap.New(heatmap.Def{AddrBase: kernelmap.TextBase, Size: kernelmap.TextSize, Gran: 2048})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Record(kernelmap.TextBase+uint64(i*97)%kernelmap.TextSize, 1)
	}
}

// BenchmarkServiceEmit times kernel-service burst generation.
func BenchmarkServiceEmit(b *testing.B) {
	img, err := kernelmap.NewImage(1)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := img.Service(kernelmap.SvcRead)
	if err != nil {
		b.Fatal(err)
	}
	var buf = svc.Emit(nil, 0, 1, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = svc.Emit(nil, int64(i), 1, buf[:0])
	}
}

// BenchmarkPCAProject times the eigenmemory projection (Eq. 1) alone.
func BenchmarkPCAProject(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		if _, err := fixDet9.PCA.Project(fixVecs[i%len(fixVecs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGMMLogProb times the mixture density evaluation (Eq. 2) alone.
func BenchmarkGMMLogProb(b *testing.B) {
	fixtures(b)
	reduced := make([][]float64, len(fixVecs))
	for i, v := range fixVecs {
		w, err := fixDet9.PCA.Project(v)
		if err != nil {
			b.Fatal(err)
		}
		reduced[i] = w
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fixDet9.GMM.LogProb(reduced[i%len(reduced)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGMMTrain times the EM fit on reduced training data.
func BenchmarkGMMTrain(b *testing.B) {
	fixtures(b)
	reduced := make([][]float64, len(fixVecs))
	for i, v := range fixVecs {
		w, err := fixDet9.PCA.Project(v)
		if err != nil {
			b.Fatal(err)
		}
		reduced[i] = w
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gmm.Train(reduced, gmm.Options{Components: 5, Restarts: 1, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEigenmemoryTrain times the PCA stage on a full quick-scale
// training matrix (L = 1472).
func BenchmarkEigenmemoryTrain(b *testing.B) {
	fixtures(b)
	maps, err := fixLab.CollectNormal(8888, 1_000_000)
	if err != nil {
		b.Fatal(err)
	}
	vectors := make([][]float64, len(maps))
	for i, m := range maps {
		vectors[i] = m.Vector()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pca.Train(vectors, pca.Options{Components: 9, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadJobGeneration times per-job segment synthesis.
func BenchmarkWorkloadJobGeneration(b *testing.B) {
	img, err := kernelmap.NewImage(1)
	if err != nil {
		b.Fatal(err)
	}
	task, err := workload.BuildTask(img, workload.ShaSpec())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task.Behavior.NewJob(int64(i), rng)
	}
}

// Training-engine fixtures: fixed train/calib map sets at quick scale
// (L = 1472 like the paper; 3 x 1 s of captures).
var (
	trnOnce sync.Once
	trnErr  error
	trnSet  []*heatmap.HeatMap
	trnCal  []*heatmap.HeatMap
)

func trainFixtures(b *testing.B) {
	b.Helper()
	fixtures(b)
	trnOnce.Do(func() {
		for run := 0; run < 3; run++ {
			maps, err := fixLab.CollectNormal(int64(7000+run), 1_000_000)
			if err != nil {
				trnErr = err
				return
			}
			trnSet = append(trnSet, maps...)
		}
		trnCal, trnErr = fixLab.CollectNormal(7100, 1_000_000)
	})
	if trnErr != nil {
		b.Fatal(trnErr)
	}
}

// benchCoreTrain times the full §5.2 model build (PCA, batch
// projection, J=5 GMM with the paper's 10 restarts, calibration) on
// prebuilt maps, excluding the simulation.
func benchCoreTrain(b *testing.B, workers int, parallel bool) {
	trainFixtures(b)
	cfg := core.Config{
		PCA:     pca.Options{Components: 9, Parallel: parallel},
		GMM:     gmm.Options{Components: 5, Restarts: 10, Parallel: parallel, Seed: 1},
		Workers: workers,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(trnSet, trnCal, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreTrainSerial is the training engine's single-worker
// baseline: every stage serial.
func BenchmarkCoreTrainSerial(b *testing.B) { benchCoreTrain(b, 1, false) }

// BenchmarkCoreTrainParallel runs the identical (bit-identical) build
// with the engine fanned out over GOMAXPROCS workers and parallel
// restarts.
func BenchmarkCoreTrainParallel(b *testing.B) { benchCoreTrain(b, runtime.GOMAXPROCS(0), true) }

// benchPCATrain times the eigenmemory stage (tiled mean/Φ/variance
// build + subspace iteration) alone.
func benchPCATrain(b *testing.B, workers int, parallel bool) {
	trainFixtures(b)
	vecs, err := heatmap.PackVectors(trnSet)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pca.Train(vecs, pca.Options{Components: 9, Workers: workers, Parallel: parallel}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPCATrain is the serial eigenmemory stage.
func BenchmarkPCATrain(b *testing.B) { benchPCATrain(b, 1, false) }

// BenchmarkPCATrainParallel is the same stage over GOMAXPROCS workers.
func BenchmarkPCATrainParallel(b *testing.B) { benchPCATrain(b, runtime.GOMAXPROCS(0), true) }

// Serialized trace fixture for the ingest benchmarks.
var (
	rawTraceOnce sync.Once
	rawTrace     []byte
	rawTraceN    int
)

func traceFixture(b *testing.B) {
	b.Helper()
	rawTraceOnce.Do(func() {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		rng := rand.New(rand.NewSource(1))
		const n = 200_000
		for i := 0; i < n; i++ {
			_ = w.Write(trace.Access{
				Time:  int64(i),
				Addr:  kernelmap.TextBase + uint64(rng.Intn(1<<21)),
				Count: uint32(1 + rng.Intn(8)),
			})
		}
		_ = w.Flush()
		rawTrace = buf.Bytes()
		rawTraceN = n
	})
}

// BenchmarkTraceReadRecord decodes a 200k-event capture one record at a
// time; ns/op is per event.
func BenchmarkTraceReadRecord(b *testing.B) {
	traceFixture(b)
	b.ResetTimer()
	for done := 0; done < b.N; done += rawTraceN {
		r := trace.NewReader(bytes.NewReader(rawTrace))
		n := 0
		for {
			if _, err := r.Read(); err != nil {
				break
			}
			n++
		}
		if n != rawTraceN {
			b.Fatalf("decoded %d events, want %d", n, rawTraceN)
		}
	}
}

// BenchmarkScoreSparse times the sparse panel product on run-length
// compressed intervals of the §5.4 base configuration; ns/op is per
// MHM, directly comparable to BenchmarkScoreBatch (the dense blocked
// kernel) and BenchmarkAnalysisTime_L1472_Lp9_J5 (the staged
// single-vector loop).
func BenchmarkScoreSparse(b *testing.B) {
	fixtures(b)
	eng, err := fixDet9.ScoreEngine()
	if err != nil {
		b.Fatal(err)
	}
	s := eng.NewScorer()
	sparse := make([]*heatmap.Sparse, len(fixMaps))
	for i, m := range fixMaps {
		sparse[i] = m.Sparsify(nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := sparse[i%len(sparse)]
		if _, err := s.ScoreSparse(sp.RunStart, sp.RunLen, sp.Counts); err != nil {
			b.Fatal(err)
		}
	}
}

// Fused-path fixture: one serialized capture spanning fusedIntervals
// 10 ms intervals of kernel-text activity at 200 events per interval.
const fusedIntervalMicros = 10_000

var (
	fusedTraceOnce sync.Once
	fusedTrace     []byte
	fusedIntervals int
)

func fusedTraceFixture(b *testing.B) {
	b.Helper()
	fusedTraceOnce.Do(func() {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		rng := rand.New(rand.NewSource(7))
		const perInterval = 200
		const intervals = 512
		for i := 0; i < intervals*perInterval; i++ {
			_ = w.Write(trace.Access{
				Time:  int64(i) * (fusedIntervalMicros / perInterval),
				Addr:  kernelmap.TextBase + uint64(rng.Intn(1<<21)),
				Count: uint32(1 + rng.Intn(8)),
			})
		}
		_ = w.Flush()
		fusedTrace = buf.Bytes()
		fusedIntervals = intervals
	})
}

// BenchmarkFusedTraceScore times the fused zero-copy ingest path end
// to end — trace.ReadBatch → memometer.SnoopBatch → sparse collect →
// ScoreSparse — so ns/op is per scored interval, comparable to the
// staged AnalysisTime benchmarks plus their collection cost.
// bytes/interval reports the serialized capture volume each interval
// ingests. allocs/op must stay 0: the per-pass reader and device
// reconfiguration amortize below one allocation per interval, and the
// steady-state loop itself is allocation-free (the bench-smoke CI
// gate).
func BenchmarkFusedTraceScore(b *testing.B) {
	fixtures(b)
	fusedTraceFixture(b)
	ts, err := fixDet9.NewTraceScorer(fusedIntervalMicros, 256)
	if err != nil {
		b.Fatal(err)
	}
	cfg := memometer.Config{Region: fixDet9.Region, IntervalMicros: fusedIntervalMicros}
	b.ResetTimer()
	for done := 0; done < b.N; done += fusedIntervals {
		// Reconfiguring rewinds the device clock so the same capture can
		// be replayed every pass.
		if err := ts.Device().Configure(cfg); err != nil {
			b.Fatal(err)
		}
		r := trace.NewReader(bytes.NewReader(fusedTrace))
		n := 0
		emit := func(core.IntervalScore) error { n++; return nil }
		if err := ts.Run(r, emit); err != nil {
			b.Fatal(err)
		}
		if err := ts.FlushAt(int64(fusedIntervals)*fusedIntervalMicros, emit); err != nil {
			b.Fatal(err)
		}
		if n != fusedIntervals {
			b.Fatalf("scored %d intervals, want %d", n, fusedIntervals)
		}
	}
	// After the loop: ResetTimer wipes custom metrics, so report last.
	b.ReportMetric(float64(len(fusedTrace))/float64(fusedIntervals), "bytes/interval")
}

// BenchmarkTraceReadBatch decodes the same capture through ReadBatch
// blocks of 256; ns/op is per event, directly comparable to
// BenchmarkTraceReadRecord.
func BenchmarkTraceReadBatch(b *testing.B) {
	traceFixture(b)
	dst := make([]trace.Access, 256)
	b.ResetTimer()
	for done := 0; done < b.N; done += rawTraceN {
		r := trace.NewReader(bytes.NewReader(rawTrace))
		n := 0
		for {
			k, err := r.ReadBatch(dst)
			n += k
			if err != nil {
				break
			}
		}
		if n != rawTraceN {
			b.Fatalf("decoded %d events, want %d", n, rawTraceN)
		}
	}
}
