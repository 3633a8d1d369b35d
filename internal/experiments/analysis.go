package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/pca"
	"github.com/memheatmap/mhm/internal/rtos"
	"github.com/memheatmap/mhm/internal/securecore"
	"github.com/memheatmap/mhm/internal/workload"
)

// AnalysisTimeRow is one configuration of the §5.4 analysis-time table.
type AnalysisTimeRow struct {
	// L is the number of cells, LPrime the eigenmemories, J the GMM
	// components.
	L, LPrime, J int
	// Gran is the MHM granularity producing L.
	Gran uint64
	// OccupiedCells is the mean number of occupied cells per classified
	// MHM: the projection sweeps only those, so it drives the cost.
	OccupiedCells float64
	// MeanMicros is the per-MHM classification time of the median
	// round: each of analysisRounds rounds times Samples
	// classifications.
	MeanMicros float64
	Samples    int
	// PaperMicros is what the paper measured on its secure core, for
	// side-by-side reporting (0 when the paper has no number).
	PaperMicros float64
}

// AnalysisTimeResult is the §5.4 table.
type AnalysisTimeResult struct {
	Rows []AnalysisTimeRow
}

// String renders the table.
func (r AnalysisTimeResult) String() string {
	var b strings.Builder
	b.WriteString("§5.4 — analysis time per MHM\n")
	b.WriteString("  L(cells)  δ(bytes)  occupied  L'  J  measured(µs)  paper(µs)\n")
	for _, row := range r.Rows {
		paper := "-"
		if row.PaperMicros > 0 {
			paper = fmt.Sprintf("%.0f", row.PaperMicros)
		}
		fmt.Fprintf(&b, "  %8d  %8d  %8.1f  %2d  %d  %12.2f  %9s\n",
			row.L, row.Gran, row.OccupiedCells, row.LPrime, row.J, row.MeanMicros, paper)
	}
	b.WriteString("  (absolute times differ from the paper's ARM secure core. The projection\n")
	b.WriteString("   sweeps only the occupied cells, so cost follows occupancy and L';\n")
	b.WriteString("   L adds only the scan that lists them)\n")
	return b.String()
}

// analysisConfigs are the three §5.4 configurations with the paper's
// measurements.
var analysisConfigs = []struct {
	gran        uint64
	lprime      int
	paperMicros float64
}{
	{2048, 9, 358},
	{8192, 9, 100},
	{2048, 5, 216},
}

// analysisRounds is how many timed rounds AnalysisTime runs per
// configuration; reporting the median round keeps a stray stall or a
// cold cache from deciding a row.
const analysisRounds = 5

// AnalysisTime measures classification latency for the paper's three
// configurations. It trains a detector per configuration at the lab's
// scale (fixing L' explicitly) first, then runs analysisRounds
// interleaved rounds, each timing samples classifications of fresh
// normal MHMs per configuration in an order that rotates every round,
// and reports each configuration's median round.
func (l *Lab) AnalysisTime(seedBase int64, samples int) (*AnalysisTimeResult, error) {
	if samples <= 0 {
		samples = 1000
	}
	dets := make([]*core.Detector, len(analysisConfigs))
	vecs := make([][][]float64, len(analysisConfigs))
	for i, cfg := range analysisConfigs {
		lab := &Lab{Img: l.Img, Scale: l.Scale}
		lab.Scale.Gran = cfg.gran
		lab.Scale.PCAOptions = pca.Options{Components: cfg.lprime, Parallel: true}
		det, _, err := lab.TrainDetector(seedBase + int64(100*i))
		if err != nil {
			return nil, fmt.Errorf("experiments: analysis config %d: %w", i, err)
		}
		// Fresh normal data to classify.
		maps, err := lab.CollectNormal(seedBase+int64(100*i)+50, lab.Scale.TrainRunMicros)
		if err != nil {
			return nil, err
		}
		if len(maps) == 0 {
			return nil, fmt.Errorf("experiments: analysis config %d: no test MHMs: %w", i, ErrExperiment)
		}
		vectors, err := heatmap.PackVectors(maps)
		if err != nil {
			return nil, err
		}
		// Warm up.
		if _, err := det.LogDensityVector(vectors[0]); err != nil {
			return nil, err
		}
		dets[i], vecs[i] = det, vectors
	}
	rounds := make([][]float64, len(analysisConfigs))
	for r := 0; r < analysisRounds; r++ {
		for k := range analysisConfigs {
			i := (r + k) % len(analysisConfigs)
			start := time.Now()
			for s := 0; s < samples; s++ {
				if _, err := dets[i].LogDensityVector(vecs[i][s%len(vecs[i])]); err != nil {
					return nil, err
				}
			}
			elapsed := time.Since(start)
			rounds[i] = append(rounds[i], float64(elapsed.Nanoseconds())/1e3/float64(samples))
		}
	}
	res := &AnalysisTimeResult{}
	for i, cfg := range analysisConfigs {
		cells, lprime := dets[i].Dim()
		slices.Sort(rounds[i])
		occupied := 0
		for s := 0; s < samples; s++ {
			for _, x := range vecs[i][s%len(vecs[i])] {
				if x != 0 {
					occupied++
				}
			}
		}
		res.Rows = append(res.Rows, AnalysisTimeRow{
			L:             cells,
			LPrime:        lprime,
			J:             len(dets[i].GMM.Components),
			Gran:          cfg.gran,
			OccupiedCells: float64(occupied) / float64(samples),
			MeanMicros:    rounds[i][analysisRounds/2],
			Samples:       samples,
			PaperMicros:   cfg.paperMicros,
		})
	}
	return res, nil
}

// TasksetRow describes one task of the §5.1 table.
type TasksetRow struct {
	Name      string
	ExecMs    float64
	PeriodMs  float64
	Category  string
	Released  int64
	Completed int64
	Missed    int64
}

// TasksetResult is the §5.1 task table plus simulated schedulability.
type TasksetResult struct {
	Rows        []TasksetRow
	Utilization float64
	// LLBound is the Liu & Layland sufficient bound for the set size.
	LLSchedulable bool
	// SimMisses is the total deadline misses over the simulated horizon.
	SimMisses int64
}

// String renders the table.
func (r TasksetResult) String() string {
	var b strings.Builder
	b.WriteString("§5.1 — task set\n")
	b.WriteString("  task       exec(ms)  period(ms)  category    released  completed  missed\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s  %8.0f  %10.0f  %-10s  %8d  %9d  %6d\n",
			row.Name, row.ExecMs, row.PeriodMs, row.Category, row.Released, row.Completed, row.Missed)
	}
	fmt.Fprintf(&b, "  utilization %.2f (paper: 0.78); LL-bound schedulable: %v; simulated misses: %d\n",
		r.Utilization, r.LLSchedulable, r.SimMisses)
	return b.String()
}

// paperCategories maps the §5.1 MiBench categories.
var paperCategories = map[string]string{
	"FFT":       "telecomm",
	"bitcount":  "automotive",
	"basicmath": "automotive",
	"sha":       "security",
}

// Taskset runs the paper task set for the given horizon and reports the
// §5.1 table with simulated schedulability statistics.
func (l *Lab) Taskset(horizonMicros int64, noiseSeed int64) (*TasksetResult, error) {
	tasks, err := workload.PaperTaskSet(l.Img)
	if err != nil {
		return nil, err
	}
	perTask := map[string]*jobCounts{}
	for _, t := range tasks {
		perTask[t.Name] = &jobCounts{}
	}
	rec := &taskCounter{perTask: perTask}
	cfg := l.sessionConfig(noiseSeed)
	cfg.ExtraListeners = []rtos.ExecListener{rec}
	s, err := securecore.NewSession(l.Img, tasks, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := s.Run(horizonMicros); err != nil {
		return nil, err
	}
	res := &TasksetResult{
		Utilization:   rtos.Utilization(tasks),
		LLSchedulable: rtos.RMSchedulable(tasks),
	}
	for _, t := range tasks {
		c := perTask[t.Name]
		res.Rows = append(res.Rows, TasksetRow{
			Name:      t.Name,
			ExecMs:    float64(t.WCET) / 1000,
			PeriodMs:  float64(t.Period) / 1000,
			Category:  paperCategories[t.Name],
			Released:  c.released,
			Completed: c.completed,
			Missed:    c.missed,
		})
		res.SimMisses += c.missed
	}
	return res, nil
}

// jobCounts tallies one task's job lifecycle events.
type jobCounts struct{ released, completed, missed int64 }

// taskCounter records per-task job statistics alongside the monitor.
type taskCounter struct {
	rtos.NopListener
	perTask map[string]*jobCounts
}

func (c *taskCounter) OnJobRelease(t int64, task *rtos.Task, idx int64) {
	if s, ok := c.perTask[task.Name]; ok {
		s.released++
	}
}

func (c *taskCounter) OnJobComplete(t int64, task *rtos.Task, idx int64, missed bool) {
	if s, ok := c.perTask[task.Name]; ok {
		s.completed++
		if missed {
			s.missed++
		}
	}
}
