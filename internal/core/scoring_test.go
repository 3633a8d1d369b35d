package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/obs"
)

var errMismatch = errors.New("concurrent score differs from serial score")

// stagedLogDensity scores v through the staged pca.Project +
// gmm.LogProb models, the reference the fused engine reproduces.
func stagedLogDensity(t *testing.T, d *Detector, v []float64) float64 {
	t.Helper()
	w, err := d.PCA.Project(v)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := d.GMM.LogProb(w)
	if err != nil {
		t.Fatal(err)
	}
	return lp
}

// TestFusedMatchesStagedDetector is the detector-level acceptance bound:
// the fused engine must reproduce the staged projection and density
// within 1e-12 on hundreds of held-out vectors (it is built to be
// bit-identical, which is also what keeps calibrated θ_p stable).
func TestFusedMatchesStagedDetector(t *testing.T) {
	d, rng := trainTestDetector(t)
	if d.scoring == nil {
		t.Fatal("trained detector has no scoring runtime")
	}
	for i := 0; i < 600; i++ {
		var m = patternMap(rng, i)
		if i%5 == 0 {
			m = anomalyMap(rng)
		}
		v := m.Vector()
		want := stagedLogDensity(t, d, v)
		got, err := d.LogDensityVector(v)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("vector %d: fused %v, staged %v", i, got, want)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("vector %d: fused score not bit-identical to staged", i)
		}
		gotM, err := d.LogDensity(m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(gotM) != math.Float64bits(want) {
			t.Fatalf("vector %d: LogDensity differs from LogDensityVector", i)
		}
	}
}

// TestDetectorScoringZeroAlloc pins the steady-state allocation contract
// of the detector entry points — fused, and staged-with-histograms.
func TestDetectorScoringZeroAlloc(t *testing.T) {
	d, rng := trainTestDetector(t)
	m := patternMap(rng, 0)
	v := m.Vector()

	if _, err := d.LogDensityVector(v); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := d.LogDensityVector(v); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("fused LogDensityVector allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := d.LogDensity(m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("fused LogDensity allocates %.1f/op, want 0", n)
	}

	// Instrumented detectors take the staged Into path so the per-stage
	// histograms stay meaningful; it must be allocation-free too.
	inst := *d
	inst.Instrument(obs.NewRegistry())
	if _, err := inst.LogDensity(m); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := inst.LogDensity(m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("instrumented LogDensity allocates %.1f/op, want 0", n)
	}
}

// TestScoreEngineAfterTrainAndLoad: both constructors install the fused
// engine, and Save/Load reproduces scoring bit for bit.
func TestScoreEngineAfterTrainAndLoad(t *testing.T) {
	d, rng := trainTestDetector(t)
	eng, err := d.ScoreEngine()
	if err != nil {
		t.Fatal(err)
	}
	if l, lp := eng.Dim(); l != 64 || lp != 4 {
		t.Fatalf("engine dims (%d, %d)", l, lp)
	}

	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.scoring == nil {
		t.Fatal("loaded detector has no scoring runtime")
	}
	m := patternMap(rng, 1)
	want, err := d.LogDensity(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.LogDensity(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("loaded detector scores %v, trained %v", got, want)
	}
}

// TestDetectorLiteralRejected: a Detector no constructor built has no
// fused engine, and every scoring method refuses it with ErrConfig
// rather than scoring through a second path.
func TestDetectorLiteralRejected(t *testing.T) {
	d, rng := trainTestDetector(t)
	bare := &Detector{Region: d.Region, PCA: d.PCA, GMM: d.GMM,
		Thresholds: d.Thresholds, ResidualThresholds: []Threshold{{P: 0.01, Theta: 1}}}
	m := patternMap(rng, 0)
	v := m.Vector()
	calls := map[string]func() error{
		"ScoreEngine": func() error { _, err := bare.ScoreEngine(); return err },
		"LogDensity":  func() error { _, err := bare.LogDensity(m); return err },
		"LogDensityVector": func() error {
			_, err := bare.LogDensityVector(v)
			return err
		},
		"LogDensityBatch": func() error {
			return bare.LogDensityBatch(make([]float64, 1), [][]float64{v})
		},
		"Classify":       func() error { _, _, err := bare.Classify(m, 0.01); return err },
		"ClassifySeries": func() error { _, err := bare.ClassifySeries([]*heatmap.HeatMap{m}); return err },
		"ClassifyWithResidual": func() error {
			_, _, _, err := bare.ClassifyWithResidual(m, 0.01)
			return err
		},
		"Residual":       func() error { _, err := bare.Residual(m); return err },
		"NewTraceScorer": func() error { _, err := bare.NewTraceScorer(10_000, 0); return err },
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, ErrConfig) {
			t.Errorf("%s on a Detector literal: %v, want ErrConfig", name, err)
		}
	}
}

// TestConcurrentScoringConsistent hammers the pooled scratch from many
// goroutines; every concurrent score must equal its serial counterpart.
// Run under -race in CI.
func TestConcurrentScoringConsistent(t *testing.T) {
	d, rng := trainTestDetector(t)
	const n = 64
	maps := make([]*heatmap.HeatMap, 0, n)
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		m := patternMap(rng, i)
		maps = append(maps, m)
		lp, err := d.LogDensity(m)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = lp
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 200; iter++ {
				i := rr.Intn(n)
				lp, err := d.LogDensity(maps[i])
				if err != nil {
					errs[g] = err
					return
				}
				if math.Float64bits(lp) != math.Float64bits(want[i]) {
					errs[g] = errMismatch
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestResidualAllocationFree: the residual check shares the pooled
// scratch with scoring, so per-interval residual monitoring stays
// allocation-free, and the pooled path reproduces the allocating
// pca.ReconstructionError bit for bit.
func TestResidualAllocationFree(t *testing.T) {
	d, rng := trainTestDetector(t)
	m := patternMap(rng, 0)
	want, err := d.PCA.ReconstructionError(m.Vector())
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Residual(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("pooled residual %v, staged %v", got, want)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := d.Residual(m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("pooled Residual allocates %.1f/op, want 0", n)
	}
}
