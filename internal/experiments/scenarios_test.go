package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/memheatmap/mhm/internal/attack"
	"github.com/memheatmap/mhm/internal/stats"
	"github.com/memheatmap/mhm/internal/syscalls"
)

// The full matrix is expensive; share one quick run across tests.
var (
	matrixOnce sync.Once
	matrixErr  error
	qMatrix    *ScenarioMatrix
)

// miniMatrixConfig keeps the shared test matrix cheap: 0.5 s per
// scenario run, event at interval 20.
func miniMatrixConfig() MatrixConfig {
	return MatrixConfig{EventIv: 20, HorizonIv: 50, P: 0.01, Window: 10, Weights: [2]float64{0.5, 0.5}}
}

func quickMatrix(t *testing.T) *ScenarioMatrix {
	t.Helper()
	lab, _, _ := quickLab(t)
	matrixOnce.Do(func() {
		qMatrix, matrixErr = lab.Scenarios(9400, miniMatrixConfig())
	})
	if matrixErr != nil {
		t.Fatal(matrixErr)
	}
	return qMatrix
}

// cellOf returns the (scenario, detector) cell of m.
func cellOf(m *ScenarioMatrix, scenario, detector string) (ScenarioCell, error) {
	for _, c := range m.Cells {
		if c.Scenario == scenario && c.Detector == detector {
			return c, nil
		}
	}
	return ScenarioCell{}, fmt.Errorf("no cell (%s, %s): %w", scenario, detector, ErrExperiment)
}

func TestScenarioMatrixShape(t *testing.T) {
	m := quickMatrix(t)
	catalog := attack.Catalog()
	if len(catalog) < 8 {
		t.Fatalf("catalog has %d scenarios, want ≥ 8", len(catalog))
	}
	if len(m.Detectors) < 3 {
		t.Fatalf("matrix has %d detectors, want ≥ 3", len(m.Detectors))
	}
	if want := len(catalog) * len(m.Detectors); len(m.Cells) != want {
		t.Fatalf("matrix has %d cells, want %d", len(m.Cells), want)
	}
	for _, e := range catalog {
		for _, det := range m.Detectors {
			c, err := cellOf(m, e.Name, det)
			if err != nil {
				t.Fatalf("missing cell (%s, %s): %v", e.Name, det, err)
			}
			if c.AUC < 0 || c.AUC > 1 {
				t.Errorf("(%s, %s): AUC %g out of [0,1]", e.Name, det, c.AUC)
			}
			if c.LatencyIv < -1 || c.LatencyIv >= m.Config.HorizonIv-m.Config.EventIv {
				t.Errorf("(%s, %s): latency %d out of range", e.Name, det, c.LatencyIv)
			}
			if c.PreFlagRate < 0 || c.PreFlagRate > 1 || c.PostFlagRate < 0 || c.PostFlagRate > 1 {
				t.Errorf("(%s, %s): rates %g/%g out of [0,1]", e.Name, det, c.PreFlagRate, c.PostFlagRate)
			}
			if c.Kind != e.Kind {
				t.Errorf("(%s, %s): kind %q, want %q", e.Name, det, c.Kind, e.Kind)
			}
		}
	}
	if _, err := cellOf(m, "no-such", "mhm"); !errors.Is(err, ErrExperiment) {
		t.Errorf("unknown cell: %v", err)
	}
	if s := m.String(); len(s) == 0 {
		t.Error("empty rendering")
	}
}

func TestScenarioMatrixLoudAttacksDetected(t *testing.T) {
	m := quickMatrix(t)
	// The paper's loud scenario must be cleanly separable for the fused
	// detectors even at the mini geometry.
	for _, det := range []string{"ensemble-max", "ensemble-wsum"} {
		c, err := cellOf(m, "app-addition", det)
		if err != nil {
			t.Fatal(err)
		}
		if c.AUC < 0.9 {
			t.Errorf("app-addition/%s AUC = %.3f, want ≥ 0.9", det, c.AUC)
		}
		if c.LatencyIv < 0 {
			t.Errorf("app-addition/%s never flagged", det)
		}
	}
	// Clean pre-event intervals must not be grossly miscalibrated. The
	// quick model sees 20 pre-event intervals of a different seed than
	// calibration, so seed-to-seed shift dominates the nominal 1% rate —
	// this bound only catches a threshold placed inside the clean bulk.
	for _, c := range m.Cells {
		if c.PreFlagRate > 0.5 {
			t.Errorf("(%s, %s): pre-event flag rate %.3f at θ_0.01", c.Scenario, c.Detector, c.PreFlagRate)
		}
	}
}

func TestScenarioMatrixJSONRoundTrip(t *testing.T) {
	m := quickMatrix(t)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back ScenarioMatrix
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(m.Cells) || back.Config.EventIv != m.Config.EventIv {
		t.Errorf("round trip lost data: %d cells, event %d", len(back.Cells), back.Config.EventIv)
	}
	c0, b0 := m.Cells[0], back.Cells[0]
	if c0 != b0 {
		t.Errorf("cell round trip: %+v vs %+v", c0, b0)
	}
}

func TestMatrixGeometryValidation(t *testing.T) {
	lab, _, _ := quickLab(t)
	if _, err := lab.Scenarios(1, MatrixConfig{EventIv: 0, HorizonIv: 10}); !errors.Is(err, ErrExperiment) {
		t.Errorf("zero event: %v", err)
	}
	if _, err := lab.Scenarios(1, MatrixConfig{EventIv: 10, HorizonIv: 10}); !errors.Is(err, ErrExperiment) {
		t.Errorf("horizon == event: %v", err)
	}
}

func TestSmoothSeries(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got := smoothSeries(xs, 3)
	want := []float64{1, 1.5, 2, 3, 4}
	for i := range want {
		if d := got[i] - want[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("smoothSeries[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if &smoothSeries(xs, 1)[0] != &xs[0] {
		t.Error("window 1 should return the input unchanged")
	}
}

func TestCollectObservedChannelsAligned(t *testing.T) {
	lab, _, _ := quickLab(t)
	maps, samples, err := lab.CollectObserved(nil, 4321, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(maps) != 30 || len(samples) != 30 {
		t.Fatalf("channels misaligned: %d maps vs %d samples", len(maps), len(samples))
	}
	// The recorder must not perturb the monitored channel: same seed
	// without a recorder yields bit-identical heat maps.
	plain, err := lab.CollectNormal(4321, 300_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range maps {
		if d, err := maps[i].L1Distance(plain[i]); err != nil || d != 0 {
			t.Fatalf("interval %d: observed run diverged from plain run (d=%d, err=%v)", i, d, err)
		}
	}
	// Syscall samples carry real activity in every interval.
	for i, s := range samples {
		total := 0.0
		for _, c := range s.Counts {
			total += c
		}
		if total <= 0 {
			t.Errorf("interval %d: empty syscall sample", i)
		}
	}
	_ = syscalls.OtherBucket
}

// goldenAUC is the regression baseline for the paper's three attacks
// under the per-interval MHM detector at quick scale, δt = 10 ms
// defaults. Regenerate with MHM_UPDATE_GOLDEN=1 go test ./internal/experiments
// -run TestGoldenROCRegression after an intentional model change.
type goldenAUC map[string]float64

func paperAttackAUC(t *testing.T) goldenAUC {
	t.Helper()
	lab, det, _ := quickLab(t)
	const (
		eventIv = 40
		horizon = 100
	)
	iv := lab.Scale.IntervalMicros
	out := goldenAUC{}
	for i, name := range []string{"app-addition", "shellcode", "rootkit-lkm"} {
		e, err := attack.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		maps, err := lab.RunScenario(e.Build(int64(eventIv)*iv+iv/2), 7700+int64(i), int64(horizon)*iv)
		if err != nil {
			t.Fatal(err)
		}
		dens, err := batchDensities(det, maps)
		if err != nil {
			t.Fatal(err)
		}
		neg := make([]float64, 0, eventIv)
		pos := make([]float64, 0, horizon-eventIv)
		for j, d := range dens {
			if j < eventIv {
				neg = append(neg, -d)
			} else {
				pos = append(pos, -d)
			}
		}
		auc, err := stats.AUC(neg, pos)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = auc
	}
	return out
}

func TestGoldenROCRegression(t *testing.T) {
	path := filepath.Join("testdata", "golden_auc.json")
	got := paperAttackAUC(t)
	if os.Getenv("MHM_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %v", path, got)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (regenerate with MHM_UPDATE_GOLDEN=1): %v", err)
	}
	var want goldenAUC
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	const slack = 0.02
	for name, g := range want {
		a, ok := got[name]
		if !ok {
			t.Errorf("scenario %s missing from current run", name)
			continue
		}
		if a < g-slack {
			t.Errorf("%s: AUC %.4f regressed below golden %.4f − %.2f", name, a, g, slack)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("scenario %s not in golden file; regenerate", name)
		}
	}
}
