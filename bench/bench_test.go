package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// smokeScale shrinks every input so that all four workloads run in a
// few seconds through the same code as paperScale.
func smokeScale() scale {
	return scale{
		trainRuns:     2,
		trainMicros:   1_000_000,
		calibMicros:   1_000_000,
		components:    9,
		restarts:      2,
		cleanMicros:   2_000_000,
		attackMicros:  2_000_000,
		refreshMicros: 3_000_000,
		refreshEvery:  64,
		fleetStreams:  64,
		fleetPool:     256,
		fleetRate:     12_800,
		fleetSegment:  100 * time.Millisecond,
		fleetTrain:    64,
		fleetCalib:    32,
	}
}

// TestWorkloadsSmoke runs every workload traced at the smoke scale: no
// interval may fail its oracle check, and both JSON lines must carry
// exactly the metric names and units frozen in testdata/metrics.golden.
func TestWorkloadsSmoke(t *testing.T) {
	golden := readGolden(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, 1, smokeScale(), opts{dur: 300 * time.Millisecond, trace: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.attempted, res.failed, res.failures)
			}
			var got []string
			for _, trace := range []bool{false, true} {
				var out bytes.Buffer
				printResult(&out, w.name, 1, res, trace)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var line jsonLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				if !line.Correct || line.Attempted != res.attempted || line.Failed != 0 {
					t.Errorf("JSON line %+v disagrees with the result", line)
				}
				var names []string
				for name, m := range line.Metrics {
					names = append(names, name+" "+m.Unit)
				}
				slices.Sort(names)
				got = append(got, names...)
			}
			if !slices.Equal(got, golden) {
				t.Errorf("metric names and units changed:\ngot  %v\nwant %v", got, golden)
			}
			for _, m := range endToEnd {
				if v := res.values[m.name]; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, v)
				}
			}
		})
	}
}

// readGolden returns the frozen "name unit" lines: the end-to-end
// metrics sorted, then the per-layer metrics sorted.
func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var e2e, layer []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		kind, rest, ok := strings.Cut(sc.Text(), " ")
		switch {
		case !ok || strings.HasPrefix(kind, "#"):
		case kind == "end_to_end":
			e2e = append(e2e, rest)
		case kind == "per_layer":
			layer = append(layer, rest)
		default:
			t.Fatalf("bad golden line %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	slices.Sort(e2e)
	slices.Sort(layer)
	return append(e2e, layer...)
}

// TestBenchmarkJSONMatchesProgram checks that the repository's
// BENCHMARK.json names the workloads and metrics this program runs and
// prints, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name  string   `json:"name"`
		Unit  string   `json:"unit"`
		Bound *float64 `json:"bound"`
	}
	var b struct {
		Workloads []spec `json:"workloads"`
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if want := strings.Split(workloadNames(), ", "); !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	check := func(kind string, specs []spec, metrics []metric) {
		if len(specs) != len(metrics) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(specs), len(metrics))
			return
		}
		for i, s := range specs {
			if s.Name != metrics[i].name || s.Unit != metrics[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, program prints %s %s",
					kind, i, s.Name, s.Unit, metrics[i].name, metrics[i].unit)
			}
			if kind == "end_to_end" && (s.Bound == nil || *s.Bound <= 0 || *s.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
