package core

import (
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/pca"
	"github.com/memheatmap/mhm/internal/score"
)

// TestNewDetectorMatchesTrained reassembles a trained detector's models
// through NewDetector and checks the fused scoring path produces
// bit-identical densities and the thresholds survive (sorted).
func TestNewDetectorMatchesTrained(t *testing.T) {
	d, rng := trainTestDetector(t)
	// Hand thresholds over in reverse order to exercise the sort.
	rev := make([]Threshold, len(d.Thresholds))
	for i, th := range d.Thresholds {
		rev[len(rev)-1-i] = th
	}
	re, err := NewDetector(d.Region, d.PCA, d.GMM, rev)
	if err != nil {
		t.Fatal(err)
	}
	for i, th := range d.Thresholds {
		if re.Thresholds[i] != th {
			t.Fatalf("threshold[%d] = %+v, want %+v", i, re.Thresholds[i], th)
		}
	}
	for trial := 0; trial < 20; trial++ {
		m := patternMap(rng, trial)
		a, err := d.LogDensity(m)
		if err != nil {
			t.Fatal(err)
		}
		b, err := re.LogDensity(m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("trial %d: trained %v vs reassembled %v", trial, a, b)
		}
	}
}

// TestNewDetectorValidation checks nil models, region mismatch,
// mixture-dimension mismatch and thresholds no calibration produces (a P
// outside (0, 1), a repeated P, a NaN θ) are rejected.
func TestNewDetectorValidation(t *testing.T) {
	d, _ := trainTestDetector(t)
	if _, err := NewDetector(d.Region, nil, d.GMM, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil PCA: %v", err)
	}
	if _, err := NewDetector(d.Region, d.PCA, nil, nil); !errors.Is(err, ErrConfig) {
		t.Fatalf("nil GMM: %v", err)
	}
	small := heatmap.Def{AddrBase: 0x1000, Size: 32 * 256, Gran: 256}
	if _, err := NewDetector(small, d.PCA, d.GMM, nil); !errors.Is(err, ErrRegionMismatch) {
		t.Fatalf("region mismatch: %v", err)
	}
	for name, ths := range map[string][]Threshold{
		"p=3":        {{P: 3, Theta: 1e308}},
		"p=0":        {{P: 0, Theta: -10}},
		"p=1":        {{P: 1, Theta: -10}},
		"NaN p":      {{P: math.NaN(), Theta: -10}},
		"repeated p": {{P: 0.01, Theta: -10}, {P: 0.005, Theta: -12}, {P: 0.01, Theta: -11}},
		"NaN θ":      {{P: 0.01, Theta: math.NaN()}},
	} {
		if _, err := NewDetector(d.Region, d.PCA, d.GMM, ths); !errors.Is(err, ErrConfig) {
			t.Errorf("thresholds %s: %v, want ErrConfig", name, err)
		}
	}
}

// TestNewDetectorRejectsNonFiniteModels: a NaN or ±Inf anywhere in the
// models — the basis, its mean, a weight, a mixture mean or a
// covariance — is refused with score.ErrModel. The projection skips
// empty cells, which is exact only over a finite basis.
func TestNewDetectorRejectsNonFiniteModels(t *testing.T) {
	d, _ := trainTestDetector(t)
	for name, spoil := range map[string]func(p *pca.Model, g *gmm.Model){
		"+Inf basis entry":    func(p *pca.Model, _ *gmm.Model) { p.Components.Set(5, 1, math.Inf(1)) },
		"NaN mixture mean":    func(_ *pca.Model, g *gmm.Model) { g.Components[1].Mean[2] = math.NaN() },
		"-Inf eigen mean":     func(p *pca.Model, _ *gmm.Model) { p.Mean[3] = math.Inf(-1) },
		"NaN weight":          func(_ *pca.Model, g *gmm.Model) { g.Components[0].Weight = math.NaN() },
		"+Inf covariance":     func(_ *pca.Model, g *gmm.Model) { g.Components[2].Cov.Set(0, 1, math.Inf(1)) },
		"NaN covariance diag": func(_ *pca.Model, g *gmm.Model) { g.Components[0].Cov.Set(3, 3, math.NaN()) },
	} {
		p := &pca.Model{Mean: slices.Clone(d.PCA.Mean), Components: d.PCA.Components.Clone(),
			Values: d.PCA.Values, TotalVariance: d.PCA.TotalVariance}
		g := &gmm.Model{}
		for _, c := range d.GMM.Components {
			g.Components = append(g.Components, gmm.Component{Weight: c.Weight, Mean: slices.Clone(c.Mean), Cov: c.Cov.Clone()})
		}
		spoil(p, g)
		if _, err := NewDetector(d.Region, p, g, d.Thresholds); !errors.Is(err, score.ErrModel) {
			t.Errorf("%s: %v, want score.ErrModel", name, err)
		}
	}
}

// TestNewDetectorEmptyThresholds allows a threshold-free detector for
// raw-density consumers, and Threshold then reports unknown quantiles.
func TestNewDetectorEmptyThresholds(t *testing.T) {
	d, rng := trainTestDetector(t)
	re, err := NewDetector(d.Region, d.PCA, d.GMM, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Thresholds) != 0 {
		t.Fatalf("%d thresholds, want 0", len(re.Thresholds))
	}
	if _, err := re.Threshold(0.01); err == nil {
		t.Fatal("Threshold on threshold-free detector succeeded")
	}
	if _, err := re.LogDensity(patternMap(rng, 0)); err != nil {
		t.Fatal(err)
	}
}

// TestWithThresholds checks that WithThresholds rejects what
// NewDetector rejects, sorts the new thresholds by P, leaves the
// receiver's thresholds alone and shares the receiver's scoring engine.
func TestWithThresholds(t *testing.T) {
	d, _ := trainTestDetector(t)
	before := append([]Threshold(nil), d.Thresholds...)
	for name, ths := range map[string][]Threshold{
		"p=0":        {{P: 0, Theta: -10}},
		"p=1.5":      {{P: 1.5, Theta: -10}},
		"repeated p": {{P: 0.01, Theta: -10}, {P: 0.005, Theta: -12}, {P: 0.01, Theta: -11}},
		"NaN θ":      {{P: 0.01, Theta: math.NaN()}},
	} {
		if _, err := d.WithThresholds(ths); !errors.Is(err, ErrConfig) {
			t.Errorf("thresholds %s: %v, want ErrConfig", name, err)
		}
	}
	ths := []Threshold{{P: 0.2, Theta: -3}, {P: 0.01, Theta: -9}, {P: 0.05, Theta: -7}}
	c, err := d.WithThresholds(ths)
	if err != nil {
		t.Fatal(err)
	}
	want := []Threshold{{P: 0.01, Theta: -9}, {P: 0.05, Theta: -7}, {P: 0.2, Theta: -3}}
	if !slices.Equal(c.Thresholds, want) {
		t.Fatalf("thresholds %+v, want %+v", c.Thresholds, want)
	}
	if !slices.Equal(d.Thresholds, before) {
		t.Fatalf("receiver thresholds became %+v, want %+v", d.Thresholds, before)
	}
	if ths[0].P != 0.2 {
		t.Fatalf("argument reordered to %+v", ths)
	}
	de, err := d.ScoreEngine()
	if err != nil {
		t.Fatal(err)
	}
	ce, err := c.ScoreEngine()
	if err != nil {
		t.Fatal(err)
	}
	if ce != de {
		t.Fatal("copy has its own scoring engine, want the receiver's")
	}
}
