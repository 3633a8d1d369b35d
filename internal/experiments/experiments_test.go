package experiments

import (
	"strings"
	"sync"
	"testing"

	"github.com/memheatmap/mhm/internal/core"
)

// Quick-scale lab and detector are expensive enough to share across the
// package's tests.
var (
	labOnce sync.Once
	labErr  error
	qLab    *Lab
	qDet    *core.Detector
	qRep    TrainingReport
)

func quickLab(t *testing.T) (*Lab, *core.Detector, TrainingReport) {
	t.Helper()
	labOnce.Do(func() {
		qLab, labErr = NewLab(1, QuickScale())
		if labErr != nil {
			return
		}
		qDet, qRep, labErr = qLab.TrainDetector(100)
	})
	if labErr != nil {
		t.Fatal(labErr)
	}
	return qLab, qDet, qRep
}

func TestTrainingReportShape(t *testing.T) {
	_, det, rep := quickLab(t)
	// 3 runs x 1 s at 10 ms = 300 training MHMs.
	if rep.TrainMHMs != 300 || rep.CalibMHMs != 100 {
		t.Errorf("train/calib = %d/%d, want 300/100", rep.TrainMHMs, rep.CalibMHMs)
	}
	if rep.Cells != 1472 {
		t.Errorf("cells = %d, want 1472 (paper: δ=2KB over .text)", rep.Cells)
	}
	if rep.Eigenmemories < 1 || rep.Eigenmemories > 16 {
		t.Errorf("eigenmemories = %d", rep.Eigenmemories)
	}
	if rep.VarianceExplained < 0.999 {
		t.Errorf("variance explained %.5f < 99.9%%", rep.VarianceExplained)
	}
	if rep.Components != 5 {
		t.Errorf("J = %d, want 5", rep.Components)
	}
	if len(det.Thresholds) != 2 {
		t.Errorf("thresholds = %+v", det.Thresholds)
	}
	if s := rep.String(); !strings.Contains(s, "L'=") {
		t.Errorf("report rendering: %q", s)
	}
}

func TestHeldOutNormalDataScoresNormal(t *testing.T) {
	lab, det, _ := quickLab(t)
	fresh, err := lab.CollectNormal(555, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	verdicts, err := det.ClassifySeries(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if fp := core.FalsePositiveRate(verdicts, 0.01); fp > 0.10 {
		t.Errorf("FP rate %.3f on held-out normal data at θ1", fp)
	}
}

func TestFig1(t *testing.T) {
	lab, _, _ := quickLab(t)
	r, err := lab.Fig1(42)
	if err != nil {
		t.Fatal(err)
	}
	if r.AddrBase != 0xC0008000 || r.RegionSize != 3013284 || r.Gran != 2048 || r.Cells != 1472 {
		t.Errorf("Fig1 params = %+v; must match the paper's table", r)
	}
	if r.Total == 0 {
		t.Error("empty example MHM")
	}
	if !strings.Contains(r.String(), "0xc0008000") {
		t.Errorf("rendering lacks base address:\n%s", r.String())
	}
}

func TestFig6(t *testing.T) {
	lab, _, _ := quickLab(t)
	r, err := lab.Fig6(300)
	if err != nil {
		t.Fatal(err)
	}
	if r.L != 1472 || r.LPrime != 16 || len(r.Weights) != 16 {
		t.Errorf("Fig6 dims = %d→%d, %d weights", r.L, r.LPrime, len(r.Weights))
	}
	// Eigenvalue shares decrease.
	for j := 1; j < len(r.EigenvalueShare); j++ {
		if r.EigenvalueShare[j] > r.EigenvalueShare[j-1]+1e-12 {
			t.Errorf("eigenvalue shares not decreasing at %d", j)
		}
	}
	if !strings.Contains(r.String(), "reconstruction RMS") {
		t.Error("rendering incomplete")
	}
}

func TestFig7AppAddition(t *testing.T) {
	lab, det, _ := quickLab(t)
	r, err := lab.Fig7(det, 777)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Verdicts) != 500 {
		t.Fatalf("%d intervals, want 500", len(r.Verdicts))
	}
	// Paper shape: pre-launch mostly normal; post-launch densities drop
	// immediately and stay low; post-exit recovery.
	preFP := float64(r.PreFP[0.01]) / float64(r.PreCount)
	if preFP > 0.10 {
		t.Errorf("pre-launch FP rate %.3f", preFP)
	}
	pre := r.MeanDensity(50, 250)
	during := r.MeanDensity(255, 440)
	after := r.MeanDensity(460, 500)
	if during >= pre-2 {
		t.Errorf("during-qsort mean density %.1f not clearly below pre %.1f", during, pre)
	}
	if after <= during+1 {
		t.Errorf("post-exit mean density %.1f did not recover from %.1f", after, during)
	}
	// Detection: most during-launch intervals flagged at θ1.
	flagged := 0
	n := 0
	for _, v := range r.Verdicts[255:440] {
		n++
		if v.Anomalous[0.01] {
			flagged++
		}
	}
	if rate := float64(flagged) / float64(n); rate < 0.5 {
		t.Errorf("during-qsort detection rate %.3f at θ1", rate)
	}
	if !strings.Contains(r.String(), "Fig. 7") {
		t.Error("rendering incomplete")
	}
}

func TestFig8Shellcode(t *testing.T) {
	lab, det, _ := quickLab(t)
	r, err := lab.Fig8(det, 888)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Verdicts) != 400 {
		t.Fatalf("%d intervals, want 400", len(r.Verdicts))
	}
	pre := r.MeanDensity(50, 250)
	post := r.MeanDensity(260, 400)
	if post >= pre-2 {
		t.Errorf("post-shellcode mean density %.1f not clearly below pre %.1f", post, pre)
	}
	// The host is dead: the anomaly persists for the rest of the run. As
	// in the paper's Fig. 7 discussion, intervals whose schedule phase
	// the dead task never touched can look normal, so require that every
	// hyperperiod window (10 intervals) keeps raising flags rather than
	// a blanket rate.
	flagged := 0
	for _, v := range r.Verdicts[260:] {
		if v.Anomalous[0.01] {
			flagged++
		}
	}
	if rate := float64(flagged) / float64(len(r.Verdicts)-260); rate < 0.3 {
		t.Errorf("post-shellcode detection rate %.3f", rate)
	}
	for w := 260; w+10 <= len(r.Verdicts); w += 10 {
		inWindow := 0
		for _, v := range r.Verdicts[w : w+10] {
			if v.Anomalous[0.01] {
				inWindow++
			}
		}
		if inWindow < 2 {
			t.Errorf("window [%d,%d): only %d flagged; anomaly did not persist", w, w+10, inWindow)
		}
	}
}

func TestFig9RootkitVolume(t *testing.T) {
	lab, _, _ := quickLab(t)
	r, err := lab.Fig9(999)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Totals) != 400 {
		t.Fatalf("%d intervals", len(r.Totals))
	}
	// Load moment distinguishable; steady state is not (paper's point).
	if r.SpikeRatio < 1.3 {
		t.Errorf("spike ratio %.2f; insmod should be loud", r.SpikeRatio)
	}
	if r.SteadyRatio < 0.97 || r.SteadyRatio > 1.03 {
		t.Errorf("steady ratio %.4f; volume should look normal after the hijack", r.SteadyRatio)
	}
	if !r.Flags[r.LoadInterval] {
		t.Error("volume detector missed the load spike")
	}
	// Steady state: volume detector nearly silent.
	flagged := 0
	for i := r.LoadInterval + 5; i < len(r.Flags); i++ {
		if r.Flags[i] {
			flagged++
		}
	}
	if rate := float64(flagged) / float64(len(r.Flags)-r.LoadInterval-5); rate > 0.2 {
		t.Errorf("volume detector flagged %.3f of steady-state intervals; should be blind", rate)
	}
}

func TestFig10RootkitMHM(t *testing.T) {
	lab, det, _ := quickLab(t)
	r, err := lab.Fig10(det, 999)
	if err != nil {
		t.Fatal(err)
	}
	// The load interval itself must score very low.
	loadLP := r.Verdicts[r.EventInterval].LogDensity
	pre := r.MeanDensity(50, r.EventInterval)
	if loadLP >= pre-3 {
		t.Errorf("load interval density %.1f not far below pre %.1f", loadLP, pre)
	}
	// Post-load: the MHM detector flags more intervals than normal FP
	// would explain (the paper: "somewhat low ... though not always
	// statistically distinguishable").
	flagged := r.PostFlagged[0.01]
	if flagged < 2 {
		t.Errorf("post-load flagged %d intervals; hijack left no statistical trace", flagged)
	}
	hist := ShaPhaseHistogram(r, 0.01, 10)
	if len(hist) != 10 {
		t.Fatalf("histogram size %d", len(hist))
	}
}

func TestAnalysisTimeShape(t *testing.T) {
	lab, _, _ := quickLab(t)
	r, err := lab.AnalysisTime(9000, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	base, coarse, fewer := r.Rows[0], r.Rows[1], r.Rows[2]
	if base.L != 1472 || coarse.L != 368 {
		t.Errorf("L values = %d/%d, want 1472/368", base.L, coarse.L)
	}
	if base.LPrime != 9 || fewer.LPrime != 5 {
		t.Errorf("L' values = %d/%d, want 9/5", base.LPrime, fewer.LPrime)
	}
	// Shape: the projection sweeps only the occupied cells, and coarse
	// granularity folds the touched cells into fewer; coarse granularity
	// and fewer eigenmemories are both faster. A 10% margin absorbs
	// wall-clock measurement noise on a loaded machine.
	if !(coarse.OccupiedCells > 0 && coarse.OccupiedCells < base.OccupiedCells) {
		t.Errorf("occupied cells per MHM: coarse %.1f, base %.1f; want 0 < coarse < base",
			coarse.OccupiedCells, base.OccupiedCells)
	}
	if coarse.MeanMicros >= 1.1*base.MeanMicros {
		t.Errorf("coarse %.2fµs not faster than base %.2fµs", coarse.MeanMicros, base.MeanMicros)
	}
	if fewer.MeanMicros >= 1.1*base.MeanMicros {
		t.Errorf("L'=5 %.2fµs not faster than base %.2fµs", fewer.MeanMicros, base.MeanMicros)
	}
	if !strings.Contains(r.String(), "358") {
		t.Error("paper reference numbers missing from table")
	}
}

func TestTaskset(t *testing.T) {
	lab, _, _ := quickLab(t)
	r, err := lab.Taskset(1_000_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Utilization < 0.779 || r.Utilization > 0.781 {
		t.Errorf("utilization = %g", r.Utilization)
	}
	if r.SimMisses != 0 {
		t.Errorf("simulated misses = %d", r.SimMisses)
	}
	for _, row := range r.Rows {
		if row.Released == 0 || row.Completed == 0 {
			t.Errorf("task %s: released %d completed %d", row.Name, row.Released, row.Completed)
		}
		if row.Category == "" {
			t.Errorf("task %s has no category", row.Name)
		}
	}
	if !strings.Contains(r.String(), "0.78") {
		t.Error("rendering incomplete")
	}
}
