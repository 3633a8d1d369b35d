package fleet

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"github.com/memheatmap/mhm/internal/alarm"
	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/obs"
)

// fleetFixture trains one small detector per test binary (training is
// the expensive part; the controller tests only need a valid model).
var fixOnce sync.Once
var fixWL *Workload
var fixDet *core.Detector

func fixture(t *testing.T) (*Workload, *core.Detector) {
	t.Helper()
	fixOnce.Do(func() {
		wl, err := NewWorkload(17, SimRegion)
		if err != nil {
			t.Fatalf("workload: %v", err)
		}
		det, err := wl.TrainDetector(192, 96)
		if err != nil {
			t.Fatalf("train: %v", err)
		}
		fixWL, fixDet = wl, det
	})
	if fixDet == nil {
		t.Fatal("fixture training failed in an earlier test")
	}
	return fixWL, fixDet
}

// mustSubmit spins until the interval is admitted — the tests that
// compare against a serial reference must not lose submissions to
// back-pressure.
func mustSubmit(t *testing.T, c *Controller, wl *Workload, stream, interval int) {
	t.Helper()
	m, err := wl.HeatMap(stream, interval, false)
	if err != nil {
		t.Fatalf("heat map: %v", err)
	}
	for {
		ok, err := c.Submit(stream, m)
		if err != nil {
			t.Fatalf("submit stream %d: %v", stream, err)
		}
		if ok {
			return
		}
		runtime.Gosched()
	}
}

func TestControllerBasic(t *testing.T) {
	wl, det := fixture(t)
	reg := obs.NewRegistry()
	c, err := New(det, 8, Config{Shards: 2, Metrics: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const intervals = 16
	for i := 0; i < intervals; i++ {
		for s := 0; s < 8; s++ {
			mustSubmit(t, c, wl, s, i)
		}
	}
	c.Close()
	for s := 0; s < 8; s++ {
		recs, err := c.Records(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != intervals {
			t.Fatalf("stream %d: %d records, want %d", s, len(recs), intervals)
		}
		for i, r := range recs {
			if r.Index != i {
				t.Fatalf("stream %d: record %d has index %d", s, i, r.Index)
			}
			if r.ModelVersion != 1 {
				t.Fatalf("stream %d rec %d: model v%d, want v1", s, i, r.ModelVersion)
			}
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["fleet.admitted"] != 8*intervals {
		t.Fatalf("fleet.admitted = %d, want %d", snap.Counters["fleet.admitted"], 8*intervals)
	}
	if _, err := c.Submit(0, mustMap(t, wl, 0, 0)); err != ErrClosed {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

func mustMap(t *testing.T, wl *Workload, stream, interval int) *heatmap.HeatMap {
	t.Helper()
	m, err := wl.HeatMap(stream, interval, false)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestControllerValidation(t *testing.T) {
	_, det := fixture(t)
	if _, err := New(nil, 4, Config{}); err == nil {
		t.Error("nil detector accepted")
	}
	if _, err := New(det, 0, Config{}); err == nil {
		t.Error("zero streams accepted")
	}
	for _, cfg := range []Config{
		{Shards: -1},
		{QueueDepth: -1},
		{MaxPerStream: -2},
		{HighWaterFrac: 2},
	} {
		if _, err := New(det, 4, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// TestControllerHotSwapBitIdentical is the race-stress pin (run in CI
// with -race -count=3): N streams submit under load from concurrent
// producers while every stream's model is hot-swapped at per-stream
// boundary K. The resulting log densities, verdicts, model versions and
// alarm transitions must be bit-identical to a serial reference run
// that applies the swap at the same boundary — the copy-on-write
// registry must neither drop, reorder, nor smear the swap.
func TestControllerHotSwapBitIdentical(t *testing.T) {
	wl, det := fixture(t)
	const (
		streams   = 24
		intervals = 40
		swapAt    = 17
	)
	c, err := New(det, streams, Config{
		Shards: 4, QueueDepth: 16, MaxPerStream: 4,
		Alarm: alarm.Config{RaiseAfter: 2, ClearAfter: 3},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	alt, err := NewModel(det, 0.005, 2)
	if err != nil {
		t.Fatalf("alt model: %v", err)
	}
	// Schedule the swap while producers run — half before they start,
	// half concurrently, to stress the scheduling path itself.
	for s := 0; s < streams/2; s++ {
		if err := c.reg.SwapAt(s, swapAt, alt); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if s >= streams/2 {
				if err := c.reg.SwapAt(s, swapAt, alt); err != nil {
					t.Errorf("swap stream %d: %v", s, err)
					return
				}
			}
			for i := 0; i < intervals; i++ {
				mustSubmit(t, c, wl, s, i)
			}
		}(s)
	}
	wg.Wait()
	c.Close()

	// Serial reference: same vectors, same models, swap applied exactly
	// at the boundary.
	base, err := NewModel(det, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	baseSc := base.Engine().NewScorer()
	altSc := alt.Engine().NewScorer()
	vbuf := make([]float64, SimRegion.Cells())
	for s := 0; s < streams; s++ {
		recs, err := c.Records(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != intervals {
			t.Fatalf("stream %d: %d records, want %d", s, len(recs), intervals)
		}
		rt, err := alarm.NewRuntime(alarm.Config{RaiseAfter: 2, ClearAfter: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			mdl, sc := base, baseSc
			if i >= swapAt {
				mdl, sc = alt, altSc
			}
			if rec.ModelVersion != mdl.version {
				t.Fatalf("stream %d interval %d scored by v%d, want v%d",
					s, i, rec.ModelVersion, mdl.version)
			}
			wl.VectorInto(vbuf, s, i, false)
			want, err := sc.Score(vbuf)
			if err != nil {
				t.Fatal(err)
			}
			if rec.LogDensity != want {
				t.Fatalf("stream %d interval %d density %v, want %v (bit-exact)",
					s, i, rec.LogDensity, want)
			}
			if rec.Anomalous != (want < mdl.theta) {
				t.Fatalf("stream %d interval %d verdict %v", s, i, rec.Anomalous)
			}
			refEv := rt.Observe(rec.Anomalous, rec.End)
			if (refEv == nil) != (rec.Event == nil) {
				t.Fatalf("stream %d interval %d alarm presence differs", s, i)
			}
			if refEv != nil && refEv.Raised != rec.Event.Raised {
				t.Fatalf("stream %d interval %d alarm direction differs", s, i)
			}
		}
	}
}

// TestControllerShedsFairly: one hot stream flooding a small fleet is
// capped by MaxPerStream while other streams on the same shard keep
// being admitted.
func TestControllerShedsFairly(t *testing.T) {
	wl, det := fixture(t)
	reg := obs.NewRegistry()
	c, err := New(det, 16, Config{Shards: 1, QueueDepth: 8, MaxPerStream: 2, Metrics: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hot := 3
	shed := 0
	m := mustMap(t, wl, hot, 0)
	// Flood far past the per-stream cap without letting the worker drain:
	// the controller guarantees non-blocking submission, so extra
	// intervals shed rather than queue.
	for i := 0; i < 64; i++ {
		ok, err := c.Submit(hot, m)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("flooding a capped stream shed nothing")
	}
	// Other streams must still get through.
	mustSubmit(t, c, wl, 9, 0)
	c.Close()
	snap := reg.Snapshot()
	if snap.Counters["fleet.shed"] == 0 {
		t.Fatal("fleet.shed counter not incremented")
	}
}

// TestSubmitMalformedCounts: Submit refuses a map whose counts do not
// number its definition's cells, so no shard worker ever scores one.
func TestSubmitMalformedCounts(t *testing.T) {
	wl, det := fixture(t)
	c, err := New(det, 2, Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	short := &heatmap.HeatMap{Def: det.Region, Counts: make([]uint32, det.Region.Cells()-1)}
	if ok, err := c.Submit(0, short); ok || !errors.Is(err, core.ErrRegionMismatch) {
		t.Errorf("short counts: admitted=%v err=%v, want refusal with ErrRegionMismatch", ok, err)
	}
	mustSubmit(t, c, wl, 0, 0)
	c.Close()
	if recs, err := c.Records(0); err != nil || len(recs) != 1 {
		t.Fatalf("records after a refused submission: %d, %v; want 1", len(recs), err)
	}
}
