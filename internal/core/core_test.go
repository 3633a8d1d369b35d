package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/pca"
)

var testDef = heatmap.Def{AddrBase: 0x1000, Size: 64 * 256, Gran: 256} // 64 cells

// patternMap builds an MHM as a noisy mixture of two base patterns,
// mimicking intervals composed of primary activities.
func patternMap(rng *rand.Rand, phase int) *heatmap.HeatMap {
	m, err := heatmap.New(testDef)
	if err != nil {
		panic(err)
	}
	// Pattern A: hot cells 0-15; pattern B: hot cells 32-47. Phase picks
	// the blend, like different schedule phases.
	wa := []float64{1, 0.2, 0.6}[phase%3]
	wb := 1 - wa
	for i := range m.Counts {
		base := 0.0
		if i < 16 {
			base = wa * 1000
		}
		if i >= 32 && i < 48 {
			base = wb * 1000
		}
		if base > 0 {
			noise := 1 + 0.05*(2*rng.Float64()-1)
			m.Counts[i] = uint32(base * noise)
		}
	}
	return m
}

// anomalyMap blends the base patterns with a weight no normal phase
// produces — the paper's detection mechanism: anomalies have abnormal
// weights of the primary activities. (An anomaly confined to cells with
// zero training variance would be invisible to the plain PCA projection;
// the residual-based extension covers that case.)
func anomalyMap(rng *rand.Rand) *heatmap.HeatMap {
	m, err := heatmap.New(testDef)
	if err != nil {
		panic(err)
	}
	const wa = 0.45 // between the 0.2 and 0.6 clusters
	for i := range m.Counts {
		base := 0.0
		if i < 16 {
			base = wa * 1000
		}
		if i >= 32 && i < 48 {
			base = (1 - wa) * 1000
		}
		if base > 0 {
			noise := 1 + 0.05*(2*rng.Float64()-1)
			m.Counts[i] = uint32(base * noise)
		}
	}
	return m
}

func trainTestDetector(t testing.TB) (*Detector, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var train, calib []*heatmap.HeatMap
	for i := 0; i < 240; i++ {
		train = append(train, patternMap(rng, i))
	}
	for i := 0; i < 120; i++ {
		calib = append(calib, patternMap(rng, i))
	}
	d, err := Train(train, calib, Config{
		PCA: pca.Options{Components: 4},
		GMM: gmm.Options{Components: 3, Restarts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, rng
}

func TestTrainAndClassifyNormalVsAnomalous(t *testing.T) {
	d, rng := trainTestDetector(t)
	l, lp := d.Dim()
	if l != 64 || lp != 4 {
		t.Errorf("Dim = (%d, %d)", l, lp)
	}
	// Normal MHMs pass at θ1 almost always.
	flagged := 0
	const nNormal = 200
	for i := 0; i < nNormal; i++ {
		anom, _, err := d.Classify(patternMap(rng, i), 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if anom {
			flagged++
		}
	}
	if rate := float64(flagged) / nNormal; rate > 0.05 {
		t.Errorf("false positive rate %.3f at θ1; expected ≈0.01", rate)
	}
	// Anomalies are flagged.
	missed := 0
	const nAnom = 50
	for i := 0; i < nAnom; i++ {
		anom, _, err := d.Classify(anomalyMap(rng), 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if !anom {
			missed++
		}
	}
	if missed > 2 {
		t.Errorf("missed %d/%d anomalies", missed, nAnom)
	}
}

func TestThresholdsOrderedAndMonotone(t *testing.T) {
	d, _ := trainTestDetector(t)
	if len(d.Thresholds) != 2 {
		t.Fatalf("thresholds = %+v", d.Thresholds)
	}
	if d.Thresholds[0].P != 0.005 || d.Thresholds[1].P != 0.01 {
		t.Errorf("quantiles = %+v, want paper defaults 0.005/0.01", d.Thresholds)
	}
	// θ0.5 ≤ θ1: a lower quantile is a more permissive bound.
	if d.Thresholds[0].Theta > d.Thresholds[1].Theta {
		t.Errorf("θ0.5 = %g > θ1 = %g", d.Thresholds[0].Theta, d.Thresholds[1].Theta)
	}
	if _, err := d.Threshold(0.25); !errors.Is(err, ErrUnknownQuantile) {
		t.Errorf("uncalibrated quantile: %v", err)
	}
}

func TestCalibratedFalsePositiveRateTracksP(t *testing.T) {
	// On fresh normal data the flag rate at θ_p should be near p.
	d, rng := trainTestDetector(t)
	var maps []*heatmap.HeatMap
	for i := 0; i < 600; i++ {
		maps = append(maps, patternMap(rng, i))
	}
	verdicts, err := d.ClassifySeries(maps)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.005, 0.01} {
		rate := FalsePositiveRate(verdicts, p)
		if rate > 5*p+0.01 {
			t.Errorf("FP rate %.4f at p=%g", rate, p)
		}
	}
	if FalsePositiveRate(nil, 0.01) != 0 {
		t.Error("empty verdicts should give rate 0")
	}
}

func TestAnomalousDensityLowerThanNormal(t *testing.T) {
	d, rng := trainTestDetector(t)
	var normalSum, anomSum float64
	for i := 0; i < 30; i++ {
		lp, err := d.LogDensity(patternMap(rng, i))
		if err != nil {
			t.Fatal(err)
		}
		normalSum += lp
		la, err := d.LogDensity(anomalyMap(rng))
		if err != nil {
			t.Fatal(err)
		}
		anomSum += la
	}
	if anomSum/30 >= normalSum/30-1 {
		t.Errorf("anomaly mean density %.1f not clearly below normal %.1f", anomSum/30, normalSum/30)
	}
}

func TestRegionMismatchRejected(t *testing.T) {
	d, _ := trainTestDetector(t)
	other, err := heatmap.New(heatmap.Def{AddrBase: 0, Size: 1024, Gran: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.LogDensity(other); !errors.Is(err, ErrRegionMismatch) {
		t.Errorf("foreign region: %v", err)
	}
	if _, _, err := d.Classify(other, 0.01); !errors.Is(err, ErrRegionMismatch) {
		t.Errorf("Classify foreign region: %v", err)
	}
}

func TestTrainValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	one := []*heatmap.HeatMap{patternMap(rng, 0)}
	many := []*heatmap.HeatMap{patternMap(rng, 0), patternMap(rng, 1), patternMap(rng, 2)}
	if _, err := Train(one, many, Config{}); !errors.Is(err, ErrConfig) {
		t.Errorf("tiny training set: %v", err)
	}
	if _, err := Train(many, nil, Config{}); !errors.Is(err, ErrConfig) {
		t.Errorf("empty calibration: %v", err)
	}
	if _, err := Train(many, many, Config{Quantiles: []float64{2}}); !errors.Is(err, ErrConfig) {
		t.Errorf("bad quantile: %v", err)
	}
	if _, err := Train(many, many, Config{Quantiles: []float64{0.01, 0.01}}); !errors.Is(err, ErrConfig) {
		t.Errorf("repeated quantile: %v", err)
	}
	mixed := append([]*heatmap.HeatMap{}, many...)
	foreign, _ := heatmap.New(heatmap.Def{AddrBase: 0, Size: 1024, Gran: 256})
	mixed = append(mixed, foreign)
	if _, err := Train(mixed, many, Config{}); !errors.Is(err, ErrRegionMismatch) {
		t.Errorf("mixed regions: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d, rng := trainTestDetector(t)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Region != d.Region {
		t.Errorf("region changed: %+v", d2.Region)
	}
	if len(d2.Thresholds) != len(d.Thresholds) {
		t.Fatalf("thresholds lost")
	}
	for i := 0; i < 10; i++ {
		m := patternMap(rng, i)
		a, err := d.LogDensity(m)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d2.LogDensity(m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("density %g vs %g after round trip", a, b)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("nope")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"region":{},"pca":{},"gmm":[]}`)); err == nil {
		t.Error("malformed accepted")
	}
}

func TestClassifySeriesVerdictFields(t *testing.T) {
	d, rng := trainTestDetector(t)
	m := patternMap(rng, 0)
	m.Start, m.End = 50000, 60000
	verdicts, err := d.ClassifySeries([]*heatmap.HeatMap{m})
	if err != nil {
		t.Fatal(err)
	}
	v := verdicts[0]
	if v.Index != 0 || v.Start != 50000 || v.End != 60000 {
		t.Errorf("verdict = %+v", v)
	}
	if len(v.Anomalous) != 2 {
		t.Errorf("verdict thresholds = %v", v.Anomalous)
	}
}

// TestTrainWorkersBitIdentical pins the training engine's determinism
// contract end to end at the detector level: PCA build, batch
// projection, the EM restarts run side by side and the threshold
// calibration must save to the serial detector's bytes at every worker
// count, with restarts below, equal to and above the workers.
func TestTrainWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var trainSet, calib []*heatmap.HeatMap
	for i := 0; i < 120; i++ {
		trainSet = append(trainSet, patternMap(rng, i))
	}
	for i := 0; i < 60; i++ {
		calib = append(calib, patternMap(rng, i))
	}
	save := func(restarts, workers int) []byte {
		t.Helper()
		d, err := Train(trainSet, calib, Config{
			PCA:     pca.Options{Components: 4},
			GMM:     gmm.Options{Components: 3, Restarts: restarts},
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("restarts=%d workers=%d: %v", restarts, workers, err)
		}
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, restarts := range []int{1, 2, 3, 10} {
		want := save(restarts, 1)
		for _, workers := range []int{0, 1, 2, 3, 8} {
			if got := save(restarts, workers); !bytes.Equal(got, want) {
				t.Fatalf("restarts=%d workers=%d: saved detector differs from the serial one", restarts, workers)
			}
		}
	}
}
