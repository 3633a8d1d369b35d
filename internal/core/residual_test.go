package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/pca"
)

// nullSpaceAnomaly looks like a perfectly normal pattern in the trained
// subspace but adds heat to cells the training data never touched — the
// case the plain projection is blind to and the residual extension must
// catch.
func nullSpaceAnomaly(rng *rand.Rand) *heatmap.HeatMap {
	m := patternMap(rng, 0)
	for i := 48; i < 64; i++ {
		m.Counts[i] = uint32(800 + rng.Intn(100))
	}
	return m
}

func trainResidualDetector(t *testing.T) (*Detector, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	var train, calib []*heatmap.HeatMap
	for i := 0; i < 240; i++ {
		train = append(train, patternMap(rng, i))
	}
	for i := 0; i < 120; i++ {
		calib = append(calib, patternMap(rng, i))
	}
	d, err := Train(train, calib, Config{
		PCA:               pca.Options{Components: 4},
		GMM:               gmm.Options{Components: 3, Restarts: 3},
		ResidualQuantiles: []float64{0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, rng
}

func TestResidualCatchesNullSpaceAnomaly(t *testing.T) {
	d, rng := trainResidualDetector(t)
	anom := nullSpaceAnomaly(rng)

	// The density test alone misses it (the extra heat projects to
	// nothing).
	densityAnom, _, err := d.Classify(anom, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if densityAnom {
		t.Log("density test caught the null-space anomaly on its own (fine, but unexpected)")
	}

	// The combined test must flag it via the residual.
	combined, _, residual, err := d.ClassifyWithResidual(anom, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !combined {
		t.Error("residual extension missed a null-space anomaly")
	}
	rTheta, err := d.ResidualThreshold(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if residual <= rTheta {
		t.Errorf("residual %g not above threshold %g", residual, rTheta)
	}
}

func TestResidualFalsePositiveRateNearP(t *testing.T) {
	d, rng := trainResidualDetector(t)
	flagged := 0
	const n = 400
	for i := 0; i < n; i++ {
		anom, _, _, err := d.ClassifyWithResidual(patternMap(rng, i), 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if anom {
			flagged++
		}
	}
	// Combined test unions two p=0.01 tests whose thresholds were
	// estimated from only 120 calibration samples; allow generous slack.
	if rate := float64(flagged) / n; rate > 0.10 {
		t.Errorf("combined FP rate %.3f", rate)
	}
}

func TestResidualDisabledByDefault(t *testing.T) {
	d, _ := trainTestDetector(t)
	if len(d.ResidualThresholds) != 0 {
		t.Errorf("residual thresholds present without opting in: %+v", d.ResidualThresholds)
	}
	m, _ := heatmap.New(testDef)
	if _, _, _, err := d.ClassifyWithResidual(m, 0.01); !errors.Is(err, ErrUnknownQuantile) {
		t.Errorf("ClassifyWithResidual without calibration: %v", err)
	}
	if _, err := d.ResidualThreshold(0.01); !errors.Is(err, ErrUnknownQuantile) {
		t.Errorf("ResidualThreshold without calibration: %v", err)
	}
}

func TestResidualRegionMismatch(t *testing.T) {
	d, _ := trainResidualDetector(t)
	other, err := heatmap.New(heatmap.Def{AddrBase: 0, Size: 1024, Gran: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Residual(other); !errors.Is(err, ErrRegionMismatch) {
		t.Errorf("foreign region: %v", err)
	}
}

func TestResidualThresholdsSurviveSaveLoad(t *testing.T) {
	d, rng := trainResidualDetector(t)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.ResidualThresholds) != len(d.ResidualThresholds) {
		t.Fatalf("residual thresholds lost: %+v", d2.ResidualThresholds)
	}
	anom := nullSpaceAnomaly(rng)
	a1, _, r1, err := d.ClassifyWithResidual(anom, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, r2, err := d2.ClassifyWithResidual(anom, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 || r1 != r2 {
		t.Errorf("verdicts differ after round trip: (%v,%g) vs (%v,%g)", a1, r1, a2, r2)
	}
}

func TestResidualConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	many := []*heatmap.HeatMap{patternMap(rng, 0), patternMap(rng, 1), patternMap(rng, 2)}
	if _, err := Train(many, many, Config{ResidualQuantiles: []float64{1.5}}); !errors.Is(err, ErrConfig) {
		t.Errorf("bad residual quantile: %v", err)
	}
	if _, err := Train(many, many, Config{ResidualQuantiles: []float64{0.01, 0.01}}); !errors.Is(err, ErrConfig) {
		t.Errorf("repeated residual quantile: %v", err)
	}
}

// TestMalformedCountsRejected: a map carrying the trained definition but
// a count vector of another length is rejected with ErrRegionMismatch
// by every scoring and training entry, instead of panicking inside
// VectorInto.
func TestMalformedCountsRejected(t *testing.T) {
	d, rng := trainResidualDetector(t)
	good := []*heatmap.HeatMap{patternMap(rng, 0), patternMap(rng, 1), patternMap(rng, 2)}
	for _, cells := range []int{d.Region.Cells() - 1, d.Region.Cells() + 1, 0} {
		m := &heatmap.HeatMap{Def: d.Region, Counts: make([]uint32, cells)}
		if _, err := d.LogDensity(m); !errors.Is(err, ErrRegionMismatch) {
			t.Errorf("%d cells: LogDensity: %v, want ErrRegionMismatch", cells, err)
		}
		if _, _, err := d.Classify(m, 0.01); !errors.Is(err, ErrRegionMismatch) {
			t.Errorf("%d cells: Classify: %v, want ErrRegionMismatch", cells, err)
		}
		if _, err := d.Residual(m); !errors.Is(err, ErrRegionMismatch) {
			t.Errorf("%d cells: Residual: %v, want ErrRegionMismatch", cells, err)
		}
		if _, _, _, err := d.ClassifyWithResidual(m, 0.01); !errors.Is(err, ErrRegionMismatch) {
			t.Errorf("%d cells: ClassifyWithResidual: %v, want ErrRegionMismatch", cells, err)
		}
		series := append(append([]*heatmap.HeatMap{}, good...), m)
		if _, err := d.ClassifySeries(series); !errors.Is(err, ErrRegionMismatch) {
			t.Errorf("%d cells: ClassifySeries: %v, want ErrRegionMismatch", cells, err)
		}
		if _, err := Train(series, good, Config{}); !errors.Is(err, ErrRegionMismatch) {
			t.Errorf("%d cells: Train: %v, want ErrRegionMismatch", cells, err)
		}
	}
}
