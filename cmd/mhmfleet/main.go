// Command mhmfleet runs the fleet detection simulator: a seeded
// population of device streams submitting memory-heat-map intervals
// through the fleet controller's routing, admission and hot-swap
// decision paths on a virtual clock, over a fixed set of shards. Two
// runs with the same seed and flags produce byte-identical decision
// traces and alarm sequences — the property the fleet test harness is
// built on.
//
// Usage:
//
//	mhmfleet [-streams N] [-seed N] [-horizon ms] [-interval ms]
//	         [-shards N] [-queue N] [-overload factor]
//	         [-overload-frac f] [-anomaly-frac f] [-swap-at N]
//	         [-trace <path|->] [-metrics <path|->] [-json]
//
// The default report is a human-readable summary; -json emits the same
// result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/memheatmap/mhm/internal/fleet"
	"github.com/memheatmap/mhm/internal/obs"
	"github.com/memheatmap/mhm/internal/refresh"
)

func main() {
	streams := flag.Int("streams", 1000, "simulated device streams")
	seed := flag.Int64("seed", 1, "workload and schedule seed")
	horizonMs := flag.Int64("horizon", 300, "simulated duration in ms")
	intervalMs := flag.Int64("interval", 10, "monitoring interval in ms")
	shards := flag.Int("shards", 0, "shard count (0 = default)")
	queue := flag.Int("queue", 0, "per-shard queue depth (0 = default)")
	service := flag.Int64("service", 0, "virtual per-interval analysis cost in µs (0 = default)")
	workers := flag.Int("workers", 0, "scoring goroutines (0 = GOMAXPROCS; result-invariant)")
	overload := flag.Float64("overload", 0, "overload fault: rate multiplier (>1 enables)")
	overloadFrac := flag.Float64("overload-frac", 0.5, "fraction of streams the overload fault hits")
	anomalyFrac := flag.Float64("anomaly-frac", 0, "fraction of streams turned anomalous mid-run")
	swapAt := flag.Int("swap-at", -1, "hot-swap every stream to a refreshed model at this interval index")
	refreshEvery := flag.Int("refresh", 0, "online model refresh: refresh after every N clean intervals (0 = off)")
	refreshWindow := flag.Int("refresh-window", 0, "refresh training-window capacity in intervals (0 = default 192)")
	refreshHoldout := flag.Int("refresh-holdout", 0, "refresh θ-calibration holdout capacity (0 = default 64)")
	tracePath := flag.String("trace", "", "write the decision trace to this path (- for stdout)")
	metricsPath := flag.String("metrics", "", "dump a metrics snapshot to this path at exit (- for stdout)")
	asJSON := flag.Bool("json", false, "emit the machine-readable result")
	flag.Parse()

	if err := run(config{
		streams: *streams, seed: *seed, horizonMs: *horizonMs, intervalMs: *intervalMs,
		shards: *shards, queue: *queue, service: *service, workers: *workers,
		overload: *overload, overloadFrac: *overloadFrac,
		anomalyFrac: *anomalyFrac, swapAt: *swapAt,
		refreshEvery: *refreshEvery, refreshWindow: *refreshWindow, refreshHoldout: *refreshHoldout,
		tracePath: *tracePath, metricsPath: *metricsPath, asJSON: *asJSON,
	}, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mhmfleet:", err)
		os.Exit(1)
	}
}

type config struct {
	streams                int
	seed                   int64
	horizonMs, intervalMs  int64
	shards, queue          int
	service                int64
	workers                int
	overload, overloadFrac float64
	anomalyFrac            float64
	swapAt                 int
	refreshEvery           int
	refreshWindow          int
	refreshHoldout         int
	tracePath, metricsPath string
	asJSON                 bool
}

// result is the machine-readable report.
type result struct {
	Streams         int     `json:"streams"`
	Seed            int64   `json:"seed"`
	HorizonMs       int64   `json:"horizon_ms"`
	Shards          int     `json:"shards"`
	Submitted       int64   `json:"submitted"`
	Admitted        int64   `json:"admitted"`
	Shed            int64   `json:"shed"`
	Anomalous       int64   `json:"anomalous"`
	Alarms          int     `json:"alarms"`
	Swaps           int64   `json:"swaps_scheduled"`
	P50IntervalUs   float64 `json:"p50_interval_micros"`
	P99IntervalUs   float64 `json:"p99_interval_micros"`
	P99DeliveryUs   float64 `json:"p99_alarm_delivery_micros"`
	MaxQueueFrac    float64 `json:"max_queue_frac"`
	TraceLines      int     `json:"trace_lines"`
	WallMs          float64 `json:"wall_ms"`
	StreamsPerSec   float64 `json:"streams_per_sec"`
	IntervalsPerSec float64 `json:"intervals_per_sec"`
	// Online-refresh fields, populated when -refresh is set.
	Refreshes        int   `json:"refreshes,omitempty"`
	FullRebuilds     int   `json:"full_rebuilds,omitempty"`
	DriftAlarms      int   `json:"drift_alarms,omitempty"`
	RefreshSwaps     int   `json:"refresh_swaps,omitempty"`
	ModelVersion     int   `json:"model_version,omitempty"`
	DroppedIntervals int64 `json:"dropped_intervals"`
}

func buildFaults(c config) ([]fleet.Fault, error) {
	var faults []fleet.Fault
	horizon := c.horizonMs * 1000
	if c.overload > 1 {
		if c.overloadFrac <= 0 || c.overloadFrac > 1 {
			return nil, fmt.Errorf("overload-frac %g out of (0,1]", c.overloadFrac)
		}
		faults = append(faults, fleet.Fault{
			Kind:       fleet.FaultOverload,
			FromMicros: horizon / 4, UntilMicros: 3 * horizon / 4,
			StreamLo: 0, StreamHi: int(float64(c.streams) * c.overloadFrac),
			Factor: c.overload,
		})
	}
	if c.anomalyFrac > 0 {
		if c.anomalyFrac > 1 {
			return nil, fmt.Errorf("anomaly-frac %g out of (0,1]", c.anomalyFrac)
		}
		faults = append(faults, fleet.Fault{
			Kind:       fleet.FaultAnomaly,
			FromMicros: horizon / 3, UntilMicros: horizon,
			StreamLo: 0, StreamHi: int(float64(c.streams) * c.anomalyFrac),
		})
	}
	if c.swapAt >= 0 {
		faults = append(faults, fleet.Fault{Kind: fleet.FaultSwap, SwapInterval: c.swapAt})
	}
	return faults, nil
}

func run(c config, stdout io.Writer) error {
	faults, err := buildFaults(c)
	if err != nil {
		return err
	}
	var reg *obs.Registry
	if c.metricsPath != "" {
		reg = obs.NewRegistry()
	}
	tr := &fleet.Trace{}
	sim, err := fleet.NewSim(fleet.SimConfig{
		Streams:        c.streams,
		Seed:           c.seed,
		HorizonMicros:  c.horizonMs * 1000,
		IntervalMicros: c.intervalMs * 1000,
		Shards:         c.shards,
		QueueDepth:     c.queue,
		ServiceMicros:  c.service,
		Workers:        c.workers,
		Faults:         faults,
		Metrics:        reg,
		Trace:          tr,
	})
	if err != nil {
		return err
	}
	var loop *refresh.Loop
	if c.refreshEvery > 0 {
		loop, err = refresh.NewLoop(sim.Detector(), sim.Registry(), refresh.LoopConfig{
			Every: c.refreshEvery,
			Refresher: refresh.Config{
				Window:  c.refreshWindow,
				Holdout: c.refreshHoldout,
				Workers: c.workers,
			},
		})
		if err != nil {
			return err
		}
		sim.SetMaintainer(loop)
	}
	start := time.Now()
	res, err := sim.Run()
	if err != nil {
		return err
	}
	wall := time.Since(start)

	if c.tracePath != "" {
		if err := writeFile(c.tracePath, tr.Bytes(), stdout); err != nil {
			return err
		}
	}
	if c.metricsPath != "" {
		if err := reg.DumpFile(c.metricsPath); err != nil {
			return err
		}
	}

	out := result{
		Streams: c.streams, Seed: c.seed, HorizonMs: c.horizonMs, Shards: res.Shards,
		Submitted: res.Submitted, Admitted: res.Admitted, Shed: res.Shed,
		Anomalous: res.Anomalous, Alarms: len(res.Alarms), Swaps: res.SwapsScheduled,
		P50IntervalUs: res.P50IntervalMicros, P99IntervalUs: res.P99IntervalMicros,
		P99DeliveryUs: res.P99DeliveryMicros, MaxQueueFrac: res.MaxQueueFrac,
		TraceLines: tr.Lines(),
		WallMs:     float64(wall.Nanoseconds()) / 1e6,
	}
	out.DroppedIntervals = res.DroppedIntervals
	if loop != nil {
		if err := loop.Err(); err != nil {
			return fmt.Errorf("refresh loop: %w", err)
		}
		st := loop.Stats()
		out.Refreshes = st.Refreshes
		out.FullRebuilds = st.FullRebuilds
		out.DriftAlarms = st.DriftAlarms
		out.RefreshSwaps = st.SwapsScheduled
		out.ModelVersion = st.Version
	}
	if secs := wall.Seconds(); secs > 0 {
		out.StreamsPerSec = float64(c.streams) / secs
		out.IntervalsPerSec = float64(res.Admitted) / secs
	}
	if c.asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	_, err = fmt.Fprintf(stdout,
		"fleet: %d streams over %d ms (seed %d)\n"+
			"  submitted %d  admitted %d  shed %d  anomalous %d  alarms %d\n"+
			"  shards %d  swaps %d  max queue %.0f%%\n"+
			"  interval latency p50 %.0fµs p99 %.0fµs  alarm delivery p99 %.0fµs (virtual)\n"+
			"  wall %.1f ms  %.0f streams/s  %.0f intervals/s\n",
		out.Streams, out.HorizonMs, out.Seed,
		out.Submitted, out.Admitted, out.Shed, out.Anomalous, out.Alarms,
		out.Shards, out.Swaps, 100*out.MaxQueueFrac,
		out.P50IntervalUs, out.P99IntervalUs, out.P99DeliveryUs,
		out.WallMs, out.StreamsPerSec, out.IntervalsPerSec)
	if err == nil && loop != nil {
		_, err = fmt.Fprintf(stdout,
			"  refresh: %d refreshes (%d full)  drift alarms %d  swaps %d  model v%d  dropped %d\n",
			out.Refreshes, out.FullRebuilds, out.DriftAlarms,
			out.RefreshSwaps, out.ModelVersion, out.DroppedIntervals)
	}
	return err
}

func writeFile(path string, data []byte, stdout io.Writer) error {
	if path == "-" {
		_, err := stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
