package pipeline

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/memheatmap/mhm/internal/alarm"
	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/pca"
)

var testDef = heatmap.Def{AddrBase: 0x1000, Size: 64 * 256, Gran: 256}

// patternMap mirrors the core package's synthetic normal MHMs.
func patternMap(rng *rand.Rand, phase int) *heatmap.HeatMap {
	m, err := heatmap.New(testDef)
	if err != nil {
		panic(err)
	}
	wa := []float64{1, 0.2, 0.6}[phase%3]
	for i := range m.Counts {
		base := 0.0
		if i < 16 {
			base = wa * 1000
		}
		if i >= 32 && i < 48 {
			base = (1 - wa) * 1000
		}
		if base > 0 {
			m.Counts[i] = uint32(base * (1 + 0.05*(2*rng.Float64()-1)))
		}
	}
	return m
}

func anomalyMap(rng *rand.Rand) *heatmap.HeatMap {
	m, _ := heatmap.New(testDef)
	for i := range m.Counts {
		base := 0.0
		if i < 16 {
			base = 450
		}
		if i >= 32 && i < 48 {
			base = 550
		}
		if base > 0 {
			m.Counts[i] = uint32(base * (1 + 0.05*(2*rng.Float64()-1)))
		}
	}
	return m
}

func trainDetector(t *testing.T, residual bool) (*core.Detector, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var train, calib []*heatmap.HeatMap
	for i := 0; i < 240; i++ {
		train = append(train, patternMap(rng, i))
	}
	for i := 0; i < 120; i++ {
		calib = append(calib, patternMap(rng, i))
	}
	cfg := core.Config{
		PCA: pca.Options{Components: 4},
		GMM: gmm.Options{Components: 3, Restarts: 2},
	}
	if residual {
		cfg.ResidualQuantiles = []float64{0.01}
	}
	det, err := core.Train(train, calib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return det, rng
}

func feed(t *testing.T, p *Pipeline, maps []*heatmap.HeatMap) {
	t.Helper()
	for i, m := range maps {
		m.Start = int64(i) * 10_000
		m.End = m.Start + 10_000
		if err := p.Process(m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPipelineDetectsAndRaises(t *testing.T) {
	det, rng := trainDetector(t, false)
	p, err := New(det, Config{Alarm: alarm.Config{RaiseAfter: 2, ClearAfter: 3}})
	if err != nil {
		t.Fatal(err)
	}
	var maps []*heatmap.HeatMap
	for i := 0; i < 50; i++ {
		maps = append(maps, patternMap(rng, i))
	}
	for i := 0; i < 10; i++ {
		maps = append(maps, anomalyMap(rng))
	}
	feed(t, p, maps)

	recs := p.Records()
	if len(recs) != 60 {
		t.Fatalf("records = %d", len(recs))
	}
	if ev := p.Alarms(); len(ev) == 0 || !ev[len(ev)-1].Raised {
		t.Error("alarm not raised during sustained anomaly")
	}
	rep := p.Analyze(50)
	if rep.DetectionLatencyIntervals < 0 || rep.DetectionLatencyIntervals > 3 {
		t.Errorf("latency = %d intervals", rep.DetectionLatencyIntervals)
	}
	if rep.FalseRaises != 0 {
		t.Errorf("false raises = %d", rep.FalseRaises)
	}
	if len(p.Alarms()) == 0 {
		t.Error("no alarm events recorded")
	}
	// Record bookkeeping.
	if recs[10].Index != 10 || recs[10].Start != 100_000 {
		t.Errorf("record 10 = %+v", recs[10])
	}
}

func TestPipelineBudget(t *testing.T) {
	det, rng := trainDetector(t, false)
	p, err := New(det, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var maps []*heatmap.HeatMap
	for i := 0; i < 30; i++ {
		maps = append(maps, patternMap(rng, i))
	}
	feed(t, p, maps)
	rep := p.Budget()
	if rep.Intervals != 30 || rep.IntervalMicros != 10_000 {
		t.Errorf("budget = %+v", rep)
	}
	if rep.MeanMicros <= 0 || rep.MaxMicros < rep.MeanMicros {
		t.Errorf("timing stats: %+v", rep)
	}
	// The §5.4 feasibility claim: analysis far cheaper than the interval.
	if rep.Overruns != 0 {
		t.Errorf("analysis overran the 10 ms budget %d times", rep.Overruns)
	}
	// Empty pipeline budget.
	empty, _ := New(det, Config{})
	if rep := empty.Budget(); rep.Intervals != 0 || rep.IntervalMicros != 0 {
		t.Errorf("empty budget = %+v", rep)
	}
}

func TestPipelineResidualMode(t *testing.T) {
	det, rng := trainDetector(t, true)
	p, err := New(det, Config{UseResidual: true, Alarm: alarm.Config{RaiseAfter: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Null-space anomaly: heat in untouched cells.
	m := patternMap(rng, 0)
	for i := 48; i < 64; i++ {
		m.Counts[i] = 900
	}
	feed(t, p, []*heatmap.HeatMap{m})
	recs := p.Records()
	if !recs[0].Anomalous {
		t.Error("residual pipeline missed null-space anomaly")
	}
	if recs[0].Residual <= 0 {
		t.Error("residual not recorded")
	}
}

func TestPipelineValidation(t *testing.T) {
	det, _ := trainDetector(t, false)
	if _, err := New(nil, Config{}); !errors.Is(err, ErrConfig) {
		t.Errorf("nil detector: %v", err)
	}
	if _, err := New(det, Config{Quantile: 0.42}); !errors.Is(err, core.ErrUnknownQuantile) {
		t.Errorf("uncalibrated quantile: %v", err)
	}
	if _, err := New(det, Config{UseResidual: true}); !errors.Is(err, core.ErrUnknownQuantile) {
		t.Errorf("residual without calibration: %v", err)
	}
	if _, err := New(det, Config{Alarm: alarm.Config{RaiseAfter: -1}}); !errors.Is(err, alarm.ErrConfig) {
		t.Errorf("bad alarm config: %v", err)
	}
}

func TestPipelineRegionMismatch(t *testing.T) {
	det, _ := trainDetector(t, false)
	p, err := New(det, Config{})
	if err != nil {
		t.Fatal(err)
	}
	foreign, _ := heatmap.New(heatmap.Def{AddrBase: 0, Size: 512, Gran: 256})
	if err := p.Process(foreign); !errors.Is(err, core.ErrRegionMismatch) {
		t.Errorf("foreign region: %v", err)
	}
}

// TestParallelTrainingDeterministic: the Parallel training options that
// experiments now default to must reproduce the serial model exactly —
// same eigenmemories, same mixture, same thresholds — so flipping the
// flag can never shift calibrated behaviour.
func TestParallelTrainingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var train, calib []*heatmap.HeatMap
	for i := 0; i < 200; i++ {
		train = append(train, patternMap(rng, i))
	}
	for i := 0; i < 100; i++ {
		calib = append(calib, patternMap(rng, i))
	}
	mk := func(parallel bool) *core.Detector {
		d, err := core.Train(train, calib, core.Config{
			PCA: pca.Options{Components: 4, Parallel: parallel},
			GMM: gmm.Options{Components: 3, Restarts: 2, Parallel: parallel},
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	serial, parallel := mk(false), mk(true)

	if !reflect.DeepEqual(serial.Thresholds, parallel.Thresholds) {
		t.Fatalf("thresholds differ: %+v vs %+v", serial.Thresholds, parallel.Thresholds)
	}
	for i := 0; i < 50; i++ {
		m := patternMap(rng, i)
		a, err := serial.LogDensity(m)
		if err != nil {
			t.Fatal(err)
		}
		b, err := parallel.LogDensity(m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("map %d: serial model %v, parallel model %v", i, a, b)
		}
	}
}

// TestPipelineMalformedCounts: a map with the trained definition but
// too few counts is an error for Process, not a panic.
func TestPipelineMalformedCounts(t *testing.T) {
	det, _ := trainDetector(t, true)
	p, err := New(det, Config{UseResidual: true})
	if err != nil {
		t.Fatal(err)
	}
	short := &heatmap.HeatMap{Def: det.Region, Counts: make([]uint32, det.Region.Cells()-1)}
	if err := p.Process(short); !errors.Is(err, core.ErrRegionMismatch) {
		t.Errorf("short counts: %v, want ErrRegionMismatch", err)
	}
}
