package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/fleet"
	"github.com/memheatmap/mhm/internal/refresh"
	"github.com/memheatmap/mhm/internal/stats"
)

// RefreshResult is experiment A14 (DESIGN.md §14): the cost and quality
// of one incremental model refresh against the full retrain it replaces,
// plus the zero-drop contract of the fleet refresh loop. The JSON form
// is the BENCH_refresh.json schema consumed by scripts/bench.sh.
type RefreshResult struct {
	// CPUs is runtime.NumCPU() on the producing machine. Latency ratios
	// are scheduling-independent (both sides run on the same machine),
	// but absolute times only compare at a known core count.
	CPUs    int   `json:"cpus"`
	Seed    int64 `json:"seed"`
	Window  int   `json:"window"`
	Holdout int   `json:"holdout"`
	Repeats int   `json:"repeats"`
	// RefreshMillis is the mean steady-state cost of one incremental
	// refresh (warm eigen + warm EM + θ recalibration) over the full
	// window; FullMillis is the mean cost of the from-scratch train the
	// refresh replaces, at the same window and model shape.
	RefreshMillis float64 `json:"refresh_ms"`
	FullMillis    float64 `json:"full_retrain_ms"`
	Speedup       float64 `json:"speedup"`
	// AUCRefreshed and AUCRetrained separate anomalous from clean
	// held-out intervals under each model; Gap is |refreshed−retrained|.
	AUCRefreshed float64 `json:"auc_refreshed"`
	AUCRetrained float64 `json:"auc_retrained"`
	AUCGap       float64 `json:"auc_gap"`
	// Loop contract, from a mini fleet run with the refresh loop
	// installed: every admitted interval must find a model (dropped == 0)
	// across every hot swap the loop schedules.
	SimRefreshes     int   `json:"sim_refreshes"`
	SimSwaps         int   `json:"sim_swaps"`
	SimModelVersion  int   `json:"sim_model_version"`
	DroppedIntervals int64 `json:"dropped_intervals"`
}

// String renders the report.
func (r *RefreshResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "A14 — incremental model refresh vs full retrain (window=%d, holdout=%d, seed=%d, %d cpus)\n",
		r.Window, r.Holdout, r.Seed, r.CPUs)
	fmt.Fprintf(&b, "  refresh      %8.2f ms/op  (mean of %d steady-state refreshes)\n", r.RefreshMillis, r.Repeats)
	fmt.Fprintf(&b, "  full retrain %8.2f ms/op\n", r.FullMillis)
	fmt.Fprintf(&b, "  speedup      %8.1fx\n", r.Speedup)
	fmt.Fprintf(&b, "  AUC refreshed %.4f  retrained %.4f  gap %.4f\n",
		r.AUCRefreshed, r.AUCRetrained, r.AUCGap)
	fmt.Fprintf(&b, "  fleet loop: %d refreshes, %d swaps, model v%d, %d dropped intervals\n",
		r.SimRefreshes, r.SimSwaps, r.SimModelVersion, r.DroppedIntervals)
	return b.String()
}

// WriteJSON writes the BENCH_refresh.json schema.
func (r *RefreshResult) WriteJSON(w io.Writer) error {
	_, err := fmt.Fprintf(w, `{
  "cpus": %d,
  "seed": %d,
  "window": %d,
  "holdout": %d,
  "repeats": %d,
  "refresh_ms": %.4f,
  "full_retrain_ms": %.4f,
  "speedup": %.2f,
  "auc_refreshed": %.4f,
  "auc_retrained": %.4f,
  "auc_gap": %.4f,
  "sim_refreshes": %d,
  "sim_swaps": %d,
  "sim_model_version": %d,
  "dropped_intervals": %d
}
`, r.CPUs, r.Seed, r.Window, r.Holdout, r.Repeats,
		r.RefreshMillis, r.FullMillis, r.Speedup,
		r.AUCRefreshed, r.AUCRetrained, r.AUCGap,
		r.SimRefreshes, r.SimSwaps, r.SimModelVersion, r.DroppedIntervals)
	return err
}

// RefreshUpkeep measures experiment A14 on the fleet workload at the
// fleet benchmark model shape (window 192, holdout 64). The refresh side
// is timed in steady state — window full, probe engine warm — because
// that is the regime the fleet loop runs in; repeats averages both
// sides. Detection quality is compared on a shared held-out eval set of
// clean and anomalous intervals neither model trained on.
func RefreshUpkeep(seed int64, repeats int) (*RefreshResult, error) {
	if repeats <= 0 {
		repeats = 10
	}
	const window, holdout, trainN, calibN = 192, 64, 192, 64
	wl, err := fleet.NewWorkload(seed, fleet.SimRegion)
	if err != nil {
		return nil, err
	}
	det, err := wl.TrainDetector(trainN, calibN)
	if err != nil {
		return nil, err
	}

	res := &RefreshResult{
		CPUs: runtime.NumCPU(), Seed: seed,
		Window: window, Holdout: holdout, Repeats: repeats,
	}

	// Fill the refresher's windows from fresh clean intervals the base
	// model never trained on, then warm up past the first-refresh
	// transient.
	r, err := refresh.New(det, refresh.Config{Window: window, Holdout: holdout})
	if err != nil {
		return nil, err
	}
	v := make([]float64, fleet.SimRegion.Cells())
	for i := 0; i < window+holdout+window/2; i++ {
		wl.VectorInto(v, i%8, trainN+calibN+i, false)
		d, err := det.LogDensityVector(v)
		if err != nil {
			return nil, err
		}
		if err := r.Observe(v, d); err != nil {
			return nil, err
		}
	}
	var refreshed *refresh.Result
	for warm := 0; warm < 3; warm++ {
		if refreshed, err = r.Refresh(); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	for i := 0; i < repeats; i++ {
		if refreshed, err = r.Refresh(); err != nil {
			return nil, err
		}
	}
	res.RefreshMillis = float64(time.Since(start).Nanoseconds()) / 1e6 / float64(repeats)

	// The slow path it replaces: a from-scratch train at the same window
	// size and model shape (PCA restart, GMM restarts, θ calibration).
	var retrained *core.Detector
	start = time.Now()
	for i := 0; i < repeats; i++ {
		if retrained, err = wl.TrainDetector(trainN, calibN); err != nil {
			return nil, err
		}
	}
	res.FullMillis = float64(time.Since(start).Nanoseconds()) / 1e6 / float64(repeats)
	if res.RefreshMillis > 0 {
		res.Speedup = res.FullMillis / res.RefreshMillis
	}

	// Detection quality on a shared held-out eval set (intervals far past
	// anything either model saw): anomaly score is −log density.
	const evalStreams, evalIv = 16, 24
	var negR, posR, negF, posF []float64
	for s := 0; s < evalStreams; s++ {
		for i := 0; i < evalIv; i++ {
			for _, anom := range []bool{false, true} {
				wl.VectorInto(v, s, 10_000+i, anom)
				dr, err := refreshed.Detector.LogDensityVector(v)
				if err != nil {
					return nil, err
				}
				df, err := retrained.LogDensityVector(v)
				if err != nil {
					return nil, err
				}
				if anom {
					posR, posF = append(posR, -dr), append(posF, -df)
				} else {
					negR, negF = append(negR, -dr), append(negF, -df)
				}
			}
		}
	}
	if res.AUCRefreshed, err = stats.AUC(negR, posR); err != nil {
		return nil, err
	}
	if res.AUCRetrained, err = stats.AUC(negF, posF); err != nil {
		return nil, err
	}
	res.AUCGap = math.Abs(res.AUCRefreshed - res.AUCRetrained)

	// Zero-drop contract: a mini fleet run with the loop installed, every
	// stream crossing several refresh-scheduled hot swaps.
	sim, err := fleet.NewSim(fleet.SimConfig{
		Streams: 8, Seed: seed, HorizonMicros: 600_000,
	})
	if err != nil {
		return nil, err
	}
	loop, err := refresh.NewLoop(sim.Detector(), sim.Registry(), refresh.LoopConfig{
		Every:     60,
		Refresher: refresh.Config{Window: 64, Holdout: 24},
	})
	if err != nil {
		return nil, err
	}
	sim.SetMaintainer(loop)
	simRes, err := sim.Run()
	if err != nil {
		return nil, err
	}
	if err := loop.Err(); err != nil {
		return nil, fmt.Errorf("experiments: refresh loop: %w", err)
	}
	st := loop.Stats()
	res.SimRefreshes = st.Refreshes
	res.SimSwaps = st.SwapsScheduled
	res.SimModelVersion = st.Version
	res.DroppedIntervals = simRes.DroppedIntervals
	return res, nil
}
