// Command bench is the repository benchmark. It replays seeded device
// captures and fleet traffic through the detector's serving paths,
// checks every verdict against a serial oracle, and prints end-to-end
// metrics (untraced) or per-layer metrics (traced, -trace 1). The last
// line of its output is one JSON object per workload run. See README.md.
//
// Run from the repository root:
//
//	bash bench/run.sh -workload replay-clean -seed 1 -seconds 10
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported metric.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by
// untraced runs; every workload reports each of them.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"intervals_per_s", "1/s"},
	{"interval_us_p50", "us"},
	{"interval_us_p99", "us"},
}

// perLayer are the traced runs' metrics. A layer a workload does not
// run reads 0 there.
var perLayer = []metric{
	{"trace.decode_ns_per_iv", "ns"},
	{"trace.records_per_iv", "count"},
	{"trace.bytes_per_iv", "B"},
	{"memometer.snoop_ns_per_iv", "ns"},
	{"memometer.collect_ns_per_iv", "ns"},
	{"memometer.cells_per_iv", "count"},
	{"memometer.overruns", "count"},
	{"heatmap.vector_ns_per_iv", "ns"},
	{"score.sparse_ns_per_iv", "ns"},
	{"score.dense_ns_per_iv", "ns"},
	{"score.detect_auc", "fraction"},
	{"alarm.observe_ns_per_iv", "ns"},
	{"alarm.events", "count"},
	{"alarm.detect_latency_iv", "intervals"},
	{"alarm.false_raises", "count"},
	{"pipeline.process_ns_per_iv", "ns"},
	{"fleet.submit_ns_p50", "ns"},
	{"fleet.submit_ns_p99", "ns"},
	{"fleet.admitted", "count"},
	{"fleet.shed", "count"},
	{"fleet.shed_frac", "fraction"},
	{"fleet.generator_lag_us_p99", "us"},
	{"fleet.drain_ms", "ms"},
	{"refresh.observe_ns_per_iv", "ns"},
	{"refresh.refresh_ms_p50", "ms"},
	{"refresh.refresh_ms_max", "ms"},
	{"refresh.refreshes", "count"},
	{"refresh.full_rebuilds", "count"},
	{"refresh.swaps", "count"},
	{"core.train_s", "s"},
	{"pca.train_s", "s"},
	{"gmm.train_s", "s"},
	{"runtime.alloc_bytes_per_iv", "B"},
	{"unattributed_frac", "fraction"},
	{"trace_overhead_frac", "fraction"},
}

// workload is one benchmark input set with the serving path it drives.
type workload struct {
	name string
	run  func(*platform, opts) (*result, error)
}

var workloads = []workload{
	{"replay-clean", replayClean},
	{"attack-pipeline", attackPipeline},
	{"fleet-dense", fleetDense},
	{"refresh-mixed", refreshMixed},
}

// opts are one run's settings.
type opts struct {
	dur      time.Duration // measured time of the run
	trace    bool          // traced run: half the time untraced, half traced
	traceOut string        // traced runs write their spans here when set
}

// untracedFor returns how long the untraced phase measures.
func (o opts) untracedFor() time.Duration {
	if o.trace {
		return o.dur / 2
	}
	return o.dur
}

// tracedFor returns how long the traced phase measures.
func (o opts) tracedFor() time.Duration { return o.dur - o.untracedFor() }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	complain := func(format string, args ...any) {
		_, _ = fmt.Fprintf(stderr, "bench: "+format+"\n", args...) // nowhere left to report to
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: all, "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 15, "measured seconds per workload run")
	traceMode := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the span buffer to this JSON file")
	runs := fs.Int("runs", 1, "run each workload N times and print the median and IQR of every metric")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *runs < 1 || (*traceMode != 0 && *traceMode != 1) {
		complain("want -seconds > 0, -runs >= 1, -trace 0|1 and no arguments")
		return 2
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		complain("unknown workload %q (want all, %s)", *name, workloadNames())
		return 2
	}
	// Two busy threads: the generator or replay loop, and one worker.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	o := opts{dur: time.Duration(*seconds * float64(time.Second)), trace: *traceMode == 1}
	correct := true
	for _, w := range todo {
		if o.trace && *traceOut != "" {
			o.traceOut = *traceOut
			if len(todo) > 1 {
				ext := filepath.Ext(*traceOut)
				o.traceOut = strings.TrimSuffix(*traceOut, ext) + "." + w.name + ext
			}
		}
		var (
			results []*result
			out     bytes.Buffer
		)
		for r := 0; r < *runs; r++ {
			res, err := runWorkload(w, *seed, paperScale(), o)
			if err != nil {
				complain("%s: %v", w.name, err)
				return 1
			}
			results = append(results, res)
			correct = correct && res.failed == 0
		}
		if *runs == 1 {
			printResult(&out, w.name, *seed, results[0], o.trace)
		} else {
			printRuns(&out, w.name, *seed, results, o.trace)
		}
		if _, err := stdout.Write(out.Bytes()); err != nil {
			complain("%v", err)
			return 1
		}
	}
	if !correct {
		complain("incorrect outputs (see FAIL lines above)")
		return 1
	}
	return 0
}

// runWorkload builds the platform and runs one workload once.
func runWorkload(w workload, seed int64, sc scale, o opts) (*result, error) {
	p, err := newPlatform(seed, sc)
	if err != nil {
		return nil, err
	}
	return w.run(p, o)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// reported returns the metrics a run prints in its JSON line.
func reported(trace bool) []metric {
	if trace {
		return perLayer
	}
	return endToEnd
}

// jsonLine is the machine-readable summary of one run.
type jsonLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints one run: notes, every metric it measured, then
// the JSON line with the metrics of its mode.
func printResult(w *bytes.Buffer, name string, seed int64, res *result, trace bool) {
	fmt.Fprintf(w, "== %s (seed %d): %d intervals attempted, %d failed\n", name, seed, res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	line := jsonLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range reported(trace) {
		v := res.values[m.name]
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", m.name, v, m.unit)
		line.Metrics[m.name] = jsonMetric{Value: finite(v), Unit: m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		// Unreachable: every value is finite and every key a string.
		panic(err)
	}
	fmt.Fprintln(w, string(b))
}

// printRuns prints the quartiles, IQR/median and MAD of every metric
// over repeated runs — the stability check — then a JSON line of the
// medians.
func printRuns(w *bytes.Buffer, name string, seed int64, results []*result, trace bool) {
	fmt.Fprintf(w, "== %s (seed %d): %d runs\n", name, seed, len(results))
	fmt.Fprintf(w, "  %-30s %14s %14s %14s %9s %12s\n", "metric", "q1", "median", "q3", "iqr/med", "mad")
	line := jsonLine{Metrics: map[string]jsonMetric{}}
	for _, res := range results {
		line.Attempted += res.attempted
		line.Failed += res.failed
	}
	line.Correct = line.Failed == 0
	for _, m := range reported(trace) {
		var vals []float64
		for _, res := range results {
			vals = append(vals, res.values[m.name])
		}
		q1, q2, q3 := quartiles(vals)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / math.Abs(q2)
		}
		fmt.Fprintf(w, "  %-30s %14.6g %14.6g %14.6g %9.4f %12.4g %s\n", m.name, q1, q2, q3, spread, mad(vals), m.unit)
		line.Metrics[m.name] = jsonMetric{Value: finite(q2), Unit: m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(b))
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
