package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"

	"github.com/memheatmap/mhm/internal/attack"
	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/ensemble"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/stats"
	"github.com/memheatmap/mhm/internal/syscalls"
)

// MatrixConfig parameterizes the scenario × detector matrix.
type MatrixConfig struct {
	// EventIv is the monitoring interval at which every scenario's event
	// fires; HorizonIv the run length in intervals.
	EventIv, HorizonIv int
	// P is the calibration quantile used for flags and latency.
	P float64
	// Window is the syscall channel's smoothing window in intervals
	// (the paper task set's hyperperiod is 10 intervals at δt = 10 ms).
	Window int
	// Weights are the ensemble's weighted-sum (MHM, syscall) weights.
	Weights [2]float64
}

// DefaultMatrixConfig mirrors the alarm experiment's geometry: event at
// interval 100 of a 250-interval run, flags at θ_0.01.
func DefaultMatrixConfig() MatrixConfig {
	return MatrixConfig{EventIv: 100, HorizonIv: 250, P: 0.01, Window: 10, Weights: [2]float64{0.5, 0.5}}
}

// QuickMatrixConfig shrinks the geometry for smoke tests while keeping
// enough pre-event intervals to calibrate against.
func QuickMatrixConfig() MatrixConfig {
	return MatrixConfig{EventIv: 40, HorizonIv: 100, P: 0.01, Window: 10, Weights: [2]float64{0.5, 0.5}}
}

// ScenarioCell is one (scenario, detector) cell of the matrix.
type ScenarioCell struct {
	// Scenario and Kind come from the attack catalog; Detector is "mhm",
	// "syscall", "ensemble-max" or "ensemble-wsum".
	Scenario string `json:"scenario"`
	Kind     string `json:"kind"`
	Stealthy bool   `json:"stealthy,omitempty"`
	Detector string `json:"detector"`
	// AUC separates post-event from pre-event intervals (0.5 = chance).
	AUC float64 `json:"auc"`
	// LatencyIv is the gap in intervals between the event and the first
	// flagged post-event interval at θ_p; -1 means never flagged.
	LatencyIv int `json:"latency_iv"`
	// PreFlagRate is the flag rate on pre-event (clean) intervals — the
	// observed false-positive rate. PostFlagRate is the flag rate on
	// post-event intervals: the detection rate for attacks, and the
	// false-positive rate under change for workload-change scenarios.
	PreFlagRate  float64 `json:"pre_flag_rate"`
	PostFlagRate float64 `json:"post_flag_rate"`
}

// ScenarioMatrix is the full per-scenario ROC/latency/false-positive
// report across all catalogued scenarios and all detectors.
type ScenarioMatrix struct {
	Config MatrixConfig `json:"config"`
	// CPUs is runtime.NumCPU() on the machine that produced the matrix:
	// detection numbers are machine-independent, but wall-time comparisons
	// against this baseline are only meaningful at a known core count.
	CPUs      int            `json:"cpus"`
	Detectors []string       `json:"detectors"`
	Cells     []ScenarioCell `json:"cells"`
}

// matrixDetectors lists the matrix's detector columns in report order.
var matrixDetectors = []string{"mhm", "syscall", ensemble.Max.String(), ensemble.WeightedSum.String()}

// syscallVocab is the frequency channel's fixed vocabulary: the clean
// image's .text service catalog plus the scheduler's own kernel
// entries. Everything else — e.g. module-space rootkit hooks, which
// scenarios register on the shared image at Install time — lands in
// "other".
func (l *Lab) syscallVocab() []string {
	return append(l.Img.BaseServiceNames(), "sched_tick", "context_switch")
}

// CollectObserved runs a (possibly nil) scenario with a syscall
// recorder attached alongside the MHM monitor and returns both
// channels' per-interval observations. The recorder only listens: the
// heat maps are bit-identical to an unobserved run at the same seed.
func (l *Lab) CollectObserved(sc attack.Scenario, noiseSeed, micros int64) ([]*heatmap.HeatMap, []syscalls.Sample, error) {
	rec, err := syscalls.NewRecorder(l.syscallVocab(), l.Scale.IntervalMicros)
	if err != nil {
		return nil, nil, err
	}
	cfg := l.sessionConfig(noiseSeed)
	cfg.ExtraListeners = append(cfg.ExtraListeners, rec)
	s, err := attack.BuildScenarioSession(l.Img, sc, cfg)
	if err != nil {
		return nil, nil, err
	}
	maps, err := s.Run(micros)
	if err != nil {
		return nil, nil, err
	}
	return maps, rec.Finish(micros), nil
}

// ensembleKit bundles the matrix's trained detectors: the MHM core
// detector, the syscall-frequency detector and the calibrated fuser.
type ensembleKit struct {
	det     *core.Detector
	sys     *syscalls.Detector
	fuser   *ensemble.Fuser
	window  int
	p       float64
	thMHM   float64
	thSys   float64
	thMax   float64
	thWSum  float64
	vocab   []string
	weights [2]float64
}

// trainEnsemble runs the two-channel training procedure: TrainRuns
// observed clean captures fit both channels, one held-out capture
// calibrates every θ_p and the fuser's clean z distributions.
func (l *Lab) trainEnsemble(seedBase int64, cfg MatrixConfig) (*ensembleKit, error) {
	var (
		trainMaps []*heatmap.HeatMap
		trainSys  []syscalls.Sample
		names     []string
	)
	for run := 0; run < l.Scale.TrainRuns; run++ {
		maps, samples, err := l.CollectObserved(nil, seedBase+int64(run), l.Scale.TrainRunMicros)
		if err != nil {
			return nil, fmt.Errorf("experiments: observed training run %d: %w", run, err)
		}
		// Smooth per run so windows never straddle run boundaries.
		smoothed, err := syscalls.Smooth(samples, cfg.Window)
		if err != nil {
			return nil, err
		}
		trainMaps = append(trainMaps, maps...)
		trainSys = append(trainSys, smoothed...)
	}
	calibMaps, calibRaw, err := l.CollectObserved(nil, seedBase+int64(l.Scale.TrainRuns), l.Scale.CalibRunMicros)
	if err != nil {
		return nil, fmt.Errorf("experiments: observed calibration run: %w", err)
	}
	calibSys, err := syscalls.Smooth(calibRaw, cfg.Window)
	if err != nil {
		return nil, err
	}
	{
		rec, err := syscalls.NewRecorder(l.syscallVocab(), l.Scale.IntervalMicros)
		if err != nil {
			return nil, err
		}
		names = rec.Names()
	}

	det, err := core.Train(trainMaps, calibMaps, core.Config{
		PCA:       l.Scale.PCAOptions,
		GMM:       l.Scale.GMMOptions,
		Quantiles: []float64{cfg.P},
	})
	if err != nil {
		return nil, err
	}
	sys, err := syscalls.Train(names, trainSys, calibSys, []float64{cfg.P})
	if err != nil {
		return nil, err
	}

	calibDens, err := batchDensities(det, calibMaps)
	if err != nil {
		return nil, err
	}
	calibScores, err := sys.ScoreSeries(calibSys)
	if err != nil {
		return nil, err
	}
	// The fuser's MHM channel consumes hyperperiod-smoothed densities:
	// averaging over one cfg.Window shrinks the clean variance so small
	// persistent displacements survive standardization. The syscall
	// channel is already windowed by syscalls.Smooth. Calibrate also
	// fits each combiner's CUSUM drift channel and places θ_p on the
	// drift-augmented statistic, which integrates sub-threshold
	// persistent evidence (mimicry, slow drift) over time. The
	// standalone detector rows keep their own definitions (per-interval
	// MHM as in the paper; one-hyperperiod syscall window).
	fuser, err := ensemble.Calibrate(
		smoothSeries(calibDens, cfg.Window),
		calibScores,
		[]float64{cfg.P})
	if err != nil {
		return nil, err
	}
	fuser.Weights = cfg.Weights

	kit := &ensembleKit{
		det: det, sys: sys, fuser: fuser,
		window: cfg.Window, p: cfg.P, vocab: names, weights: cfg.Weights,
	}
	if kit.thMHM, err = det.Threshold(cfg.P); err != nil {
		return nil, err
	}
	if kit.thSys, err = sys.Threshold(cfg.P); err != nil {
		return nil, err
	}
	if kit.thMax, err = fuser.Threshold(ensemble.Max, cfg.P); err != nil {
		return nil, err
	}
	if kit.thWSum, err = fuser.Threshold(ensemble.WeightedSum, cfg.P); err != nil {
		return nil, err
	}
	return kit, nil
}

// smoothSeries is the scalar analogue of syscalls.Smooth: element i
// averages xs[max(0,i-window+1) .. i].
func smoothSeries(xs []float64, window int) []float64 {
	if window <= 1 {
		return xs
	}
	out := make([]float64, len(xs))
	acc := 0.0
	for i, x := range xs {
		acc += x
		n := window
		if i >= window {
			acc -= xs[i-window]
		} else {
			n = i + 1
		}
		out[i] = acc / float64(n)
	}
	return out
}

// channelSeries holds one run's per-interval scores on every detector,
// oriented so that HIGHER means more anomalous (raw log-density-like
// channels are negated), plus the matching flag series at θ_p.
type channelSeries struct {
	anomaly map[string][]float64
	flags   map[string][]bool
}

// score runs all four detectors over one observed capture.
func (k *ensembleKit) score(maps []*heatmap.HeatMap, samples []syscalls.Sample) (*channelSeries, error) {
	if len(maps) != len(samples) {
		return nil, fmt.Errorf("experiments: %d maps vs %d syscall samples: %w", len(maps), len(samples), ErrExperiment)
	}
	smoothed, err := syscalls.Smooth(samples, k.window)
	if err != nil {
		return nil, err
	}
	dens, err := batchDensities(k.det, maps)
	if err != nil {
		return nil, err
	}
	sysScores, err := k.sys.ScoreSeries(smoothed)
	if err != nil {
		return nil, err
	}
	densSm := smoothSeries(dens, k.window)
	fusedMax, err := k.fuser.FuseSeriesDrift(ensemble.Max, densSm, sysScores)
	if err != nil {
		return nil, err
	}
	fusedWSum, err := k.fuser.FuseSeriesDrift(ensemble.WeightedSum, densSm, sysScores)
	if err != nil {
		return nil, err
	}
	n := len(maps)
	out := &channelSeries{anomaly: map[string][]float64{}, flags: map[string][]bool{}}
	neg := func(xs []float64) []float64 {
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = -x
		}
		return ys
	}
	out.anomaly["mhm"] = neg(dens)
	out.anomaly["syscall"] = neg(sysScores)
	out.anomaly[ensemble.Max.String()] = fusedMax
	out.anomaly[ensemble.WeightedSum.String()] = fusedWSum
	flag := func(below []float64, theta float64) []bool {
		fs := make([]bool, n)
		for i, s := range below {
			fs[i] = s < theta
		}
		return fs
	}
	out.flags["mhm"] = flag(dens, k.thMHM)
	out.flags["syscall"] = flag(sysScores, k.thSys)
	above := func(fused []float64, theta float64) []bool {
		fs := make([]bool, n)
		for i, s := range fused {
			fs[i] = s > theta
		}
		return fs
	}
	out.flags[ensemble.Max.String()] = above(fusedMax, k.thMax)
	out.flags[ensemble.WeightedSum.String()] = above(fusedWSum, k.thWSum)
	return out, nil
}

// cellsFor turns one scenario run's series into the matrix rows.
func cellsFor(e attack.Entry, s *channelSeries, cfg MatrixConfig) ([]ScenarioCell, error) {
	var cells []ScenarioCell
	for _, name := range matrixDetectors {
		an := s.anomaly[name]
		if len(an) < cfg.HorizonIv {
			return nil, fmt.Errorf("experiments: %s/%s: %d intervals, want %d: %w",
				e.Name, name, len(an), cfg.HorizonIv, ErrExperiment)
		}
		pre, post := an[:cfg.EventIv], an[cfg.EventIv:cfg.HorizonIv]
		auc, err := stats.AUC(pre, post)
		if err != nil {
			return nil, err
		}
		fl := s.flags[name]
		latency := -1
		preFlags, postFlags := 0, 0
		for i := 0; i < cfg.EventIv; i++ {
			if fl[i] {
				preFlags++
			}
		}
		for i := cfg.EventIv; i < cfg.HorizonIv; i++ {
			if fl[i] {
				postFlags++
				if latency < 0 {
					latency = i - cfg.EventIv
				}
			}
		}
		cells = append(cells, ScenarioCell{
			Scenario:     e.Name,
			Kind:         e.Kind,
			Stealthy:     e.Stealthy,
			Detector:     name,
			AUC:          auc,
			LatencyIv:    latency,
			PreFlagRate:  float64(preFlags) / float64(cfg.EventIv),
			PostFlagRate: float64(postFlags) / float64(cfg.HorizonIv-cfg.EventIv),
		})
	}
	return cells, nil
}

// Scenarios runs the full matrix: every catalogued scenario (plus the
// benign workload-change entries) scored by every detector. Each
// scenario's event fires at cfg.EventIv; AUC separates its post-event
// intervals from its own pre-event (bit-identical-to-clean) prefix.
func (l *Lab) Scenarios(seedBase int64, cfg MatrixConfig) (*ScenarioMatrix, error) {
	if cfg.EventIv <= 0 || cfg.HorizonIv <= cfg.EventIv {
		return nil, fmt.Errorf("experiments: matrix geometry event=%d horizon=%d: %w",
			cfg.EventIv, cfg.HorizonIv, ErrExperiment)
	}
	kit, err := l.trainEnsemble(seedBase, cfg)
	if err != nil {
		return nil, err
	}
	iv := l.Scale.IntervalMicros
	eventAt := int64(cfg.EventIv)*iv + iv/2
	horizon := int64(cfg.HorizonIv) * iv
	matrix := &ScenarioMatrix{Config: cfg, CPUs: runtime.NumCPU(), Detectors: append([]string(nil), matrixDetectors...)}
	for i, e := range attack.Catalog() {
		sc := e.Build(eventAt)
		maps, samples, err := l.CollectObserved(sc, seedBase+int64(l.Scale.TrainRuns)+10+int64(i), horizon)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %s: %w", e.Name, err)
		}
		series, err := kit.score(maps, samples)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %s: %w", e.Name, err)
		}
		cells, err := cellsFor(e, series, cfg)
		if err != nil {
			return nil, err
		}
		matrix.Cells = append(matrix.Cells, cells...)
	}
	return matrix, nil
}

// String renders the matrix grouped by scenario.
func (m *ScenarioMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario × detector matrix (event at interval %d of %d, flags at θ_%g, window %d)\n",
		m.Config.EventIv, m.Config.HorizonIv, m.Config.P, m.Config.Window)
	b.WriteString("  scenario           kind             detector        AUC    latency   preFP   postFlag\n")
	last := ""
	for _, c := range m.Cells {
		name := c.Scenario
		if c.Stealthy {
			name += "*"
		}
		if name == last {
			name = ""
		} else {
			last = name
		}
		lat := "never"
		if c.LatencyIv >= 0 {
			lat = fmt.Sprintf("%3d iv", c.LatencyIv)
		}
		fmt.Fprintf(&b, "  %-18s %-16s %-13s %6.3f  %7s  %6.3f  %7.3f\n",
			name, c.Kind, c.Detector, c.AUC, lat, c.PreFlagRate, c.PostFlagRate)
	}
	b.WriteString("  (* = engineered against the per-interval MHM threshold; postFlag is the detection\n")
	b.WriteString("   rate for attacks and the false-positive rate under change for workload-change rows)\n")
	return b.String()
}

// WriteJSON emits the matrix in the BENCH_scenarios.json schema.
func (m *ScenarioMatrix) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
