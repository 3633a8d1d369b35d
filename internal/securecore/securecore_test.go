package securecore

import (
	"errors"
	"testing"

	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/kernelmap"
	"github.com/memheatmap/mhm/internal/memometer"
	"github.com/memheatmap/mhm/internal/workload"
)

func testImage(t *testing.T) *kernelmap.Image {
	t.Helper()
	img, err := kernelmap.NewImage(1)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func paperSession(t *testing.T, seed int64) *Session {
	t.Helper()
	img := testImage(t)
	tasks, err := workload.PaperTaskSet(img)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(img, tasks, SessionConfig{NoiseSeed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionProducesOneMHMPerInterval(t *testing.T) {
	s := paperSession(t, 1)
	maps, err := s.Run(300000) // 300 ms -> 30 intervals of 10 ms
	if err != nil {
		t.Fatal(err)
	}
	if len(maps) != 30 {
		t.Fatalf("got %d MHMs, want 30", len(maps))
	}
	for i, m := range maps {
		if m.Start != int64(i)*10000 || m.End != int64(i+1)*10000 {
			t.Errorf("MHM %d spans [%d,%d)", i, m.Start, m.End)
		}
		if m.Total() == 0 {
			t.Errorf("MHM %d is empty", i)
		}
	}
	if err := s.Monitor.Err(); err != nil {
		t.Fatal(err)
	}
	if s.Monitor.dev.Stats().Overruns != 0 {
		t.Errorf("overruns: %d", s.Monitor.dev.Stats().Overruns)
	}
}

func TestTrafficVolumeInPaperRange(t *testing.T) {
	// Fig. 9's y-axis runs to ~1.4e5 accesses per 10 ms interval; the
	// synthetic workload should land within an order of magnitude.
	s := paperSession(t, 2)
	maps, err := s.Run(200000)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range maps {
		total := m.Total()
		if total < 5e3 || total > 5e5 {
			t.Errorf("interval %d: traffic %d outside plausible range", i, total)
		}
	}
}

func TestMHMsRepeatAcrossHyperperiods(t *testing.T) {
	// The task set's hyperperiod is 100 ms = 10 intervals. Interval i and
	// i+10 observe the same phase of the schedule, so their MHMs must be
	// far more similar than MHMs from different phases.
	s := paperSession(t, 3)
	maps, err := s.Run(400000)
	if err != nil {
		t.Fatal(err)
	}
	if len(maps) != 40 {
		t.Fatalf("maps = %d", len(maps))
	}
	rel := func(a, b *heatmap.HeatMap) float64 {
		d, err := a.L1Distance(b)
		if err != nil {
			t.Fatal(err)
		}
		return float64(d) / float64(a.Total()+b.Total())
	}
	// Compare phase-aligned intervals from the 2nd hyperperiod on (the
	// first may carry startup transients).
	var same, diff float64
	var nSame, nDiff int
	for i := 10; i < 30; i++ {
		same += rel(maps[i], maps[i+10])
		nSame++
		diff += rel(maps[i], maps[i+5])
		nDiff++
	}
	same /= float64(nSame)
	diff /= float64(nDiff)
	if same >= diff {
		t.Errorf("phase-aligned distance %.3f not smaller than cross-phase %.3f", same, diff)
	}
}

func TestSessionDeterministicForSameSeed(t *testing.T) {
	a, err := paperSession(t, 7).Run(100000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := paperSession(t, 7).Run(100000)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		d, err := a[i].L1Distance(b[i])
		if err != nil {
			t.Fatal(err)
		}
		if d != 0 {
			t.Fatalf("MHM %d differs across identical runs (L1=%d)", i, d)
		}
	}
	c, err := paperSession(t, 8).Run(100000)
	if err != nil {
		t.Fatal(err)
	}
	var totalDiff uint64
	for i := range a {
		d, _ := a[i].L1Distance(c[i])
		totalDiff += d
	}
	if totalDiff == 0 {
		t.Error("different noise seeds produced identical MHMs")
	}
}

func TestAccessesConfinedToKernelText(t *testing.T) {
	s := paperSession(t, 4)
	if _, err := s.Run(100000); err != nil {
		t.Fatal(err)
	}
	st := s.Monitor.dev.Stats()
	if st.Snooped == 0 {
		t.Fatal("no snoops")
	}
	// Everything the workload emits lies inside .text, so the filter
	// should accept every burst.
	if st.Accepted != st.Snooped {
		t.Errorf("accepted %d of %d snoops; emission leaked outside .text", st.Accepted, st.Snooped)
	}
}

func TestSinkErrorLatches(t *testing.T) {
	img := testImage(t)
	sentinel := errors.New("sink failed")
	mon, err := NewMonitor(img, memometer.Config{
		Region:         heatmap.Def{AddrBase: img.Base, Size: img.Size, Gran: 2048},
		IntervalMicros: 1000,
	}, 1, func(hm *heatmap.HeatMap) error { return sentinel })
	if err != nil {
		t.Fatal(err)
	}
	// A tick past the first boundary closes an interval into the sink.
	mon.OnTick(1500)
	if err := mon.Err(); !errors.Is(err, sentinel) {
		t.Errorf("tick err = %v", err)
	}
	if !errors.Is(mon.Err(), ErrMonitor) {
		t.Errorf("Err = %v, want ErrMonitor wrap", mon.Err())
	}
	// Further calls keep reporting the latched error.
	if err := mon.AdvanceTo(5000); !errors.Is(err, sentinel) {
		t.Errorf("AdvanceTo after latch: %v", err)
	}
}

func TestNewMonitorValidation(t *testing.T) {
	img := testImage(t)
	if _, err := NewMonitor(nil, memometer.Config{}, 1, nil); !errors.Is(err, ErrMonitor) {
		t.Errorf("nil image: %v", err)
	}
	if _, err := NewMonitor(img, memometer.Config{
		Region:         heatmap.Def{AddrBase: img.Base, Size: img.Size, Gran: 512}, // too many cells
		IntervalMicros: 10000,
	}, 1, nil); !errors.Is(err, memometer.ErrConfig) {
		t.Errorf("oversized region: %v", err)
	}
}

func TestCoarseGranularitySession(t *testing.T) {
	// δ = 8 KB gives L = 368 cells (paper §5.4's coarse configuration).
	img := testImage(t)
	tasks, err := workload.PaperTaskSet(img)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(img, tasks, SessionConfig{
		Region:    heatmap.Def{AddrBase: img.Base, Size: img.Size, Gran: 8192},
		NoiseSeed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	maps, err := s.Run(50000)
	if err != nil {
		t.Fatal(err)
	}
	if len(maps) != 5 {
		t.Fatalf("maps = %d", len(maps))
	}
	if got := len(maps[0].Counts); got != 368 {
		t.Errorf("cells = %d, want 368 (paper §5.4)", got)
	}
}
