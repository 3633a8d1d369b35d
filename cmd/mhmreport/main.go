// Command mhmreport regenerates every table and figure of the paper's
// evaluation (§5) plus the ablation studies listed in DESIGN.md, printing
// the same rows/series the paper reports.
//
// Usage:
//
//	mhmreport [-exp all|fig1|training|fig6|fig7|fig8|fig9|fig10|analysis|taskset|
//	           ablation-lprime|ablation-j|ablation-gran|ablation-baseline|
//	           ablation-cache|smp|alarms|extended|roc|auto-j|generalize|multiregion|
//	           metrics|scenarios|refresh]
//	          [-scale paper|medium|quick] [-seed N] [-json FILE]
//
// The scenarios experiment runs the full scenario × detector matrix
// (catalogued attacks and workload changes against the MHM, syscall-
// frequency and ensemble detectors); -json additionally writes it in
// the BENCH_scenarios.json schema. The refresh experiment compares one
// incremental model refresh against the full retrain it replaces
// (latency and detection AUC) and checks the fleet loop's zero-drop
// swap contract; -json writes the BENCH_refresh.json schema.
//
// The paper scale (10 runs x 3 s of training data) takes tens of seconds;
// medium and quick scales run the identical pipeline on less data. The
// metrics experiment runs a fully instrumented online detection loop and
// prints a summary parsed from the internal/obs JSON snapshot.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"

	"github.com/memheatmap/mhm/internal/attack"
	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/experiments"
	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/obs"
	"github.com/memheatmap/mhm/internal/pca"
	"github.com/memheatmap/mhm/internal/pipeline"
	"github.com/memheatmap/mhm/internal/securecore"
)

func scaleByName(name string) (experiments.Scale, error) {
	switch name {
	case "paper":
		return experiments.PaperScale(), nil
	case "quick":
		return experiments.QuickScale(), nil
	case "medium":
		s := experiments.PaperScale()
		s.TrainRuns = 5
		s.TrainRunMicros = 2_000_000
		s.CalibRunMicros = 2_000_000
		s.PCAOptions = pca.Options{VarianceFraction: 0.9999, MaxComponents: 24, Parallel: true}
		s.GMMOptions = gmm.Options{Components: 5, Restarts: 5, Workers: runtime.GOMAXPROCS(0)}
		return s, nil
	default:
		return experiments.Scale{}, fmt.Errorf("unknown scale %q", name)
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment to run")
	scaleName := flag.String("scale", "medium", "paper, medium or quick")
	seed := flag.Int64("seed", 1, "platform seed")
	jsonPath := flag.String("json", "", "write machine-readable results here (scenarios experiment)")
	flag.Parse()

	if err := run(*exp, *scaleName, *seed, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "mhmreport:", err)
		os.Exit(1)
	}
}

func run(exp, scaleName string, seed int64, jsonPath string) error {
	scale, err := scaleByName(scaleName)
	if err != nil {
		return err
	}
	lab, err := experiments.NewLab(seed, scale)
	if err != nil {
		return err
	}

	// Several experiments share the trained detector; train lazily.
	var det *core.Detector
	detector := func() (*core.Detector, error) {
		if det != nil {
			return det, nil
		}
		fmt.Printf("== training detector (%s scale) ==\n", scaleName)
		d, rep, err := lab.TrainDetector(100)
		if err != nil {
			return nil, err
		}
		fmt.Print(rep.String())
		det = d
		return det, nil
	}

	type runner struct {
		name string
		fn   func() error
	}
	runners := []runner{
		{"taskset", func() error {
			r, err := lab.Taskset(2_000_000, 7)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			return nil
		}},
		{"fig1", func() error {
			r, err := lab.Fig1(42)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			return nil
		}},
		{"training", func() error {
			if _, err := detector(); err != nil {
				return err
			}
			r, err := lab.TrainingThroughput(9300, 1)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			return nil
		}},
		{"fig6", func() error {
			r, err := lab.Fig6(300)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			return nil
		}},
		{"fig7", func() error {
			d, err := detector()
			if err != nil {
				return err
			}
			r, err := lab.Fig7(d, 777)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			return printDetectionPlot(r)
		}},
		{"fig8", func() error {
			d, err := detector()
			if err != nil {
				return err
			}
			r, err := lab.Fig8(d, 888)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			return printDetectionPlot(r)
		}},
		{"fig9", func() error {
			r, err := lab.Fig9(999)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			chart, err := r.Plot(100, 16)
			if err != nil {
				return err
			}
			fmt.Print(chart)
			return nil
		}},
		{"fig10", func() error {
			d, err := detector()
			if err != nil {
				return err
			}
			r, err := lab.Fig10(d, 999)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			hist := experiments.ShaPhaseHistogram(r, 0.01, 10)
			fmt.Printf("  flagged-by-phase histogram (mod 10 intervals; sha period = 10 intervals): %v\n", hist)
			return printDetectionPlot(r)
		}},
		{"analysis", func() error {
			r, err := lab.AnalysisTime(9000, 1000)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			return nil
		}},
		{"ablation-lprime", func() error {
			r, err := lab.LPrimeSweep([]int{1, 2, 4, 9, 16}, 2000)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			return nil
		}},
		{"ablation-j", func() error {
			r, err := lab.JSweep([]int{1, 2, 5, 8}, 2000)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			return nil
		}},
		{"ablation-gran", func() error {
			// δ = 1 KB would need 2,943 cells — more than the 8 KB
			// on-chip MHM memory holds, so the sweep starts at the
			// paper's 2 KB.
			r, err := lab.GranSweep([]uint64{2048, 4096, 8192, 16384}, 2000)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			return nil
		}},
		{"ablation-baseline", func() error {
			d, err := detector()
			if err != nil {
				return err
			}
			r, err := lab.BaselineCompare(d, 3000)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			return nil
		}},
		{"ablation-cache", func() error {
			r, err := lab.CachePlacement(4000)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			return nil
		}},
		{"smp", func() error {
			r, err := lab.SMPDetection(5000)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			return nil
		}},
		{"alarms", func() error {
			d, err := detector()
			if err != nil {
				return err
			}
			r, err := lab.AlarmLatency(d, 6000)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			return nil
		}},
		{"extended", func() error {
			d, err := detector()
			if err != nil {
				return err
			}
			r, err := lab.ExtendedScenarios(d, 7000)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			return nil
		}},
		{"roc", func() error {
			d, err := detector()
			if err != nil {
				return err
			}
			r, err := lab.ROC(d, 8000, nil)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			return nil
		}},
		{"auto-j", func() error {
			r, err := lab.AutoJ(9100, 1, 8)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			return nil
		}},
		{"generalize", func() error {
			r, err := lab.Generalize(9500)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			return nil
		}},
		{"multiregion", func() error {
			d, err := detector()
			if err != nil {
				return err
			}
			r, err := lab.MultiRegion(d, 999)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			return nil
		}},
		{"metrics", func() error {
			d, err := detector()
			if err != nil {
				return err
			}
			return metricsSummary(lab, d, seed)
		}},
		{"scenarios", func() error {
			cfg := experiments.DefaultMatrixConfig()
			if scaleName == "quick" {
				cfg = experiments.QuickMatrixConfig()
			}
			m, err := lab.Scenarios(9400, cfg)
			if err != nil {
				return err
			}
			fmt.Print(m.String())
			if jsonPath == "" {
				return nil
			}
			f, err := os.Create(jsonPath)
			if err != nil {
				return err
			}
			if err := m.WriteJSON(f); err != nil {
				_ = f.Close()
				return err
			}
			fmt.Printf("  wrote %s\n", jsonPath)
			return f.Close()
		}},
		{"refresh", func() error {
			r, err := experiments.RefreshUpkeep(seed, 20)
			if err != nil {
				return err
			}
			fmt.Print(r.String())
			if jsonPath == "" {
				return nil
			}
			f, err := os.Create(jsonPath)
			if err != nil {
				return err
			}
			if err := r.WriteJSON(f); err != nil {
				_ = f.Close()
				return err
			}
			fmt.Printf("  wrote %s\n", jsonPath)
			return f.Close()
		}},
	}

	ran := false
	for _, r := range runners {
		if exp != "all" && exp != r.name {
			continue
		}
		ran = true
		fmt.Printf("\n==== %s ====\n", r.name)
		if err := r.fn(); err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// printDetectionPlot renders a detection result's density chart.
func printDetectionPlot(r *experiments.DetectionResult) error {
	chart, err := r.Plot(100, 16)
	if err != nil {
		return err
	}
	fmt.Print(chart)
	return nil
}

// metricsSummary runs a fully instrumented online detection loop
// (rootkit scenario) and prints the observability snapshot two ways:
// a stage-by-stage summary table parsed from the frozen JSON schema —
// proving the export is machine-readable — and the raw text form.
func metricsSummary(lab *experiments.Lab, d *core.Detector, seed int64) error {
	reg := obs.NewRegistry()
	// Instrument a shallow copy so the shared detector used by the
	// other experiments stays untouched.
	det := *d
	det.Instrument(reg)
	pl, err := pipeline.New(&det, pipeline.Config{Quantile: 0.01, Metrics: reg})
	if err != nil {
		return err
	}
	session, err := attack.BuildScenarioSession(lab.Img, &attack.RootkitLKM{LoadAt: 1_500_000},
		securecore.SessionConfig{
			Region:         d.Region,
			IntervalMicros: 10_000,
			NoiseSeed:      seed + 31000,
			OnMHM:          pl.Process,
		})
	if err != nil {
		return err
	}
	session.Monitor.SetMetrics(reg)
	if _, err := session.Run(3_000_000); err != nil {
		return err
	}

	// Round-trip through the frozen JSON schema.
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return err
	}
	snap, err := obs.ParseSnapshot(buf.Bytes())
	if err != nil {
		return err
	}

	fmt.Println("metrics summary (3 s rootkit run, 10 ms intervals):")
	fmt.Printf("  %-28s %d\n", "bursts delivered", snap.Counters["securecore.bursts_delivered"])
	fmt.Printf("  %-28s %d snooped, %d accepted\n", "memometer filter",
		snap.Counters["memometer.snooped"], snap.Counters["memometer.accepted"])
	fmt.Printf("  %-28s %d swaps, %d dropped\n", "double buffer",
		snap.Counters["memometer.swaps"], snap.Counters["memometer.overruns"])
	fmt.Printf("  %-28s %d analyzed, %d anomalous, %d deadline overruns\n", "pipeline intervals",
		snap.Counters["pipeline.intervals"], snap.Counters["pipeline.anomalous"],
		snap.Counters["pipeline.overruns"])
	fmt.Printf("  %-28s %d raised, %d cleared, %d suppressed\n", "alarms",
		snap.Counters["alarm.raised"], snap.Counters["alarm.cleared"],
		snap.Counters["alarm.suppressed"])
	for _, row := range []struct{ label, name string }{
		{"PCA projection", "core.project_micros"},
		{"GMM scoring", "core.score_micros"},
		{"interval analysis", "pipeline.analysis_micros"},
	} {
		h, ok := snap.Histograms[row.name]
		if !ok {
			return fmt.Errorf("metrics: histogram %q missing from snapshot", row.name)
		}
		fmt.Printf("  %-28s p50=%.1fµs p99=%.1fµs max=%.1fµs (n=%d)\n",
			row.label+" latency", h.Quantile(0.5), h.Quantile(0.99), h.Max, h.Count)
	}
	fmt.Println("raw snapshot (expvar-style):")
	return reg.WriteText(os.Stdout)
}
