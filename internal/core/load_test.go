package core

import (
	"bytes"
	"encoding/json"
	"errors"
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

// FuzzLoad: Load never panics, and any detector it returns scores a zero
// interval of its own region without error — a model file either yields
// a working detector or an error, never one that fails per interval.
func FuzzLoad(f *testing.F) {
	d, _ := trainTestDetector(f)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
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
	})
}
