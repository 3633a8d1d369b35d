package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/memheatmap/mhm/internal/heatmap"
)

// savedDetector returns a trained detector's Save output decoded into
// the persistence wrapper, ready to be tampered with.
func savedDetector(t *testing.T) detectorJSON {
	t.Helper()
	d, _ := trainTestDetector(t)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var dj detectorJSON
	if err := json.Unmarshal(buf.Bytes(), &dj); err != nil {
		t.Fatal(err)
	}
	return dj
}

func encodeDetector(t *testing.T, dj detectorJSON) []byte {
	t.Helper()
	data, err := json.Marshal(dj)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLoadRejectsUnfusedModels: a saved detector whose models do not
// fuse with its region, or with each other, must fail to load rather
// than load without a scoring engine and fail on every interval.
func TestLoadRejectsUnfusedModels(t *testing.T) {
	dj := savedDetector(t)

	// The region doubled to 128 cells over the 64-dim eigenmemories.
	wide := dj
	wide.Region.Size *= 2
	if wide.Region.Cells() != 128 {
		t.Fatalf("doubled region has %d cells, want 128", wide.Region.Cells())
	}
	if _, err := Load(bytes.NewReader(encodeDetector(t, wide))); !errors.Is(err, ErrRegionMismatch) {
		t.Errorf("128-cell region over a 64-dim model: %v, want ErrRegionMismatch", err)
	}

	// The mixture cut to L'−1 dimensions: drop each component's last
	// coordinate. A leading principal submatrix of an SPD covariance is
	// SPD, so the mixture alone still loads.
	var comps []struct {
		Weight float64     `json:"weight"`
		Mean   []float64   `json:"mean"`
		Cov    [][]float64 `json:"cov"`
	}
	if err := json.Unmarshal(dj.GMM, &comps); err != nil {
		t.Fatal(err)
	}
	for i := range comps {
		d := len(comps[i].Mean) - 1
		comps[i].Mean = comps[i].Mean[:d]
		comps[i].Cov = comps[i].Cov[:d]
		for r := range comps[i].Cov {
			comps[i].Cov[r] = comps[i].Cov[r][:d]
		}
	}
	cut, err := json.Marshal(comps)
	if err != nil {
		t.Fatal(err)
	}
	narrow := dj
	narrow.GMM = cut
	if _, err := Load(bytes.NewReader(encodeDetector(t, narrow))); !errors.Is(err, ErrConfig) {
		t.Errorf("(L'-1)-dim mixture: %v, want ErrConfig", err)
	}

	// The untouched file still loads and scores.
	d, err := Load(bytes.NewReader(encodeDetector(t, dj)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.LogDensityVector(make([]float64, d.Region.Cells())); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRejectsBadThresholds: a saved detector whose thresholds no
// calibration produces — a P outside (0, 1), a repeated P — must fail to
// load with ErrConfig. The first row is the tampered file that used to
// load and flag every interval: P = 3 with θ = 1e308. JSON cannot carry
// a NaN θ; TestNewDetectorValidation covers that one.
func TestLoadRejectsBadThresholds(t *testing.T) {
	dj := savedDetector(t)
	good := dj.Thresholds
	for _, tc := range []struct {
		name          string
		ths, residual []Threshold
	}{
		{"p=3 θ=1e308", []Threshold{{P: 3, Theta: 1e308}}, nil},
		{"p=0", []Threshold{{P: 0, Theta: -10}}, nil},
		{"p=1", []Threshold{{P: 1, Theta: -10}}, nil},
		{"p<0", []Threshold{{P: -0.01, Theta: -10}}, nil},
		{"repeated p", []Threshold{good[0], good[1], {P: good[0].P, Theta: good[1].Theta}}, nil},
		{"residual p=3", good, []Threshold{{P: 3, Theta: 1}}},
		{"residual repeated p", good, []Threshold{{P: 0.01, Theta: 1}, {P: 0.01, Theta: 2}}},
	} {
		bad := dj
		bad.Thresholds, bad.ResidualThresholds = tc.ths, tc.residual
		if _, err := Load(bytes.NewReader(encodeDetector(t, bad))); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: %v, want ErrConfig", tc.name, err)
		}
	}

	// Unsorted thresholds and residual thresholds in (0, 1) still load.
	ok := dj
	ok.Thresholds = []Threshold{good[1], good[0]}
	ok.ResidualThresholds = []Threshold{{P: 0.01, Theta: 1}, {P: 0.005, Theta: 2}}
	if _, err := Load(bytes.NewReader(encodeDetector(t, ok))); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSortsThresholds: a file that lists its thresholds out of
// order, {0.01, 0.005}, loads with both lists sorted by P ascending, as
// Detector documents and NewDetector produces, and each θ stays paired
// with its P.
func TestLoadSortsThresholds(t *testing.T) {
	dj := savedDetector(t)
	dj.Thresholds = []Threshold{{P: 0.01, Theta: -40}, {P: 0.005, Theta: -50}}
	dj.ResidualThresholds = []Threshold{{P: 0.01, Theta: 2}, {P: 0.005, Theta: 3}}
	d, err := Load(bytes.NewReader(encodeDetector(t, dj)))
	if err != nil {
		t.Fatal(err)
	}
	want := []Threshold{{P: 0.005, Theta: -50}, {P: 0.01, Theta: -40}}
	wantResidual := []Threshold{{P: 0.005, Theta: 3}, {P: 0.01, Theta: 2}}
	if fmt.Sprint(d.Thresholds) != fmt.Sprint(want) || fmt.Sprint(d.ResidualThresholds) != fmt.Sprint(wantResidual) {
		t.Fatalf("loaded thresholds %v and residual thresholds %v, want %v and %v",
			d.Thresholds, d.ResidualThresholds, want, wantResidual)
	}
	for _, th := range want {
		if theta, err := d.Threshold(th.P); err != nil || theta != th.Theta {
			t.Errorf("Threshold(%g) = %g, %v; want %g", th.P, theta, err, th.Theta)
		}
	}
	for _, th := range wantResidual {
		if theta, err := d.ResidualThreshold(th.P); err != nil || theta != th.Theta {
			t.Errorf("ResidualThreshold(%g) = %g, %v; want %g", th.P, theta, err, th.Theta)
		}
	}
}

// brokenThresholdRule names the first threshold rule ths breaks — every
// P in (0, 1), no P twice, no NaN θ — or returns "".
func brokenThresholdRule(ths []Threshold) string {
	seen := map[float64]bool{}
	for _, th := range ths {
		switch {
		case !(th.P > 0 && th.P < 1):
			return fmt.Sprintf("p=%g outside (0,1)", th.P)
		case seen[th.P]:
			return fmt.Sprintf("p=%g repeats", th.P)
		case math.IsNaN(th.Theta):
			return fmt.Sprintf("p=%g has a NaN θ", th.P)
		}
		seen[th.P] = true
	}
	return ""
}

// FuzzLoad: Load never panics, any detector it returns scores a zero
// interval of its own region without error — a model file either yields
// a working detector or an error, never one that fails per interval —
// and every threshold it carries has a P in (0, 1), no P twice and a θ
// that is not NaN.
func FuzzLoad(f *testing.F) {
	d, _ := trainTestDetector(f)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(bytes.Replace(buf.Bytes(), []byte(`{"p":0.01,`), []byte(`{"p":3,`), 1))
	f.Add([]byte("nope"))
	f.Add([]byte(`{"region":{},"pca":{},"gmm":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		m, err := heatmap.New(d.Region)
		if err != nil {
			t.Fatalf("loaded detector has an unusable region %+v: %v", d.Region, err)
		}
		if _, err := d.LogDensity(m); err != nil {
			t.Fatalf("loaded detector cannot score a zero interval: %v", err)
		}
		if rule := brokenThresholdRule(d.Thresholds); rule != "" {
			t.Fatalf("loaded detector's threshold %s", rule)
		}
		if rule := brokenThresholdRule(d.ResidualThresholds); rule != "" {
			t.Fatalf("loaded detector's residual threshold %s", rule)
		}
	})
}
