package fleet

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/memheatmap/mhm/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// metricNames is the frozen-schema shape: the sorted name set per
// metric kind. Values are deliberately excluded — they depend on wall
// clock and load — but a renamed, dropped, or retyped metric breaks
// every dashboard reading the fleet, so the names are golden.
type metricNames struct {
	Counters   []string `json:"counters"`
	Gauges     []string `json:"gauges"`
	Histograms []string `json:"histograms"`
}

// TestFleetMetricsSchemaGolden freezes the fleet metric names (the PR 1
// obs pattern). newFleetMetrics pre-registers every metric, so the full
// name set exists before any traffic. Regenerate with
// `go test ./internal/fleet -run TestFleetMetricsSchemaGolden -update`
// only when a schema change is intentional.
func TestFleetMetricsSchemaGolden(t *testing.T) {
	reg := obs.NewRegistry()
	newFleetMetrics(reg)
	snap := reg.Snapshot()
	got := metricNames{
		Counters:   sortedNames(snap.Counters),
		Gauges:     sortedNames(snap.Gauges),
		Histograms: sortedNames(snap.Histograms),
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	path := filepath.Join("testdata", "fleet_metrics_schema.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(data) != string(want) {
		t.Errorf("fleet metric schema drifted from golden file.\ngot:\n%s\nwant:\n%s", data, want)
	}
}

// TestFleetMetricsRegisteredThroughStack asserts the same names surface
// through a real controller and a real simulation — no path registers a
// metric the schema doesn't know.
func TestFleetMetricsRegisteredThroughStack(t *testing.T) {
	want := readGoldenNames(t)

	_, det := fixture(t)
	creg := obs.NewRegistry()
	c, err := New(det, 4, Config{Shards: 2, Metrics: creg})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	checkNames(t, "controller", creg, want)

	sreg := obs.NewRegistry()
	s, err := NewSim(SimConfig{Streams: 8, Seed: 1, HorizonMicros: 20_000, Metrics: sreg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkNames(t, "simulator", sreg, want)
	if got := sreg.Snapshot().Gauges["fleet.shards"]; got != float64(res.Shards) {
		t.Errorf("fleet.shards gauge %g, run served on %d shards", got, res.Shards)
	}
}

func readGoldenNames(t *testing.T) metricNames {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "fleet_metrics_schema.json"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	var want metricNames
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	return want
}

func checkNames(t *testing.T, who string, reg *obs.Registry, want metricNames) {
	t.Helper()
	snap := reg.Snapshot()
	for kind, pair := range map[string][2][]string{
		"counters":   {sortedNames(snap.Counters), want.Counters},
		"gauges":     {sortedNames(snap.Gauges), want.Gauges},
		"histograms": {sortedNames(snap.Histograms), want.Histograms},
	} {
		got, exp := pair[0], pair[1]
		if len(got) != len(exp) {
			t.Errorf("%s %s: %v, golden %v", who, kind, got, exp)
			continue
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Errorf("%s %s[%d]: %q, golden %q", who, kind, i, got[i], exp[i])
			}
		}
	}
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
