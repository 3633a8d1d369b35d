package pipeline

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/memheatmap/mhm/internal/memometer"
	"github.com/memheatmap/mhm/internal/obs"
)

// TestConcurrentPipelineAndSnapshot exercises the deployment shape the
// observability layer exists for: the simulation thread drives the
// memometer double buffer and the pipeline, while exporter goroutines
// concurrently poll the registry and the pipeline's read accessors. Run
// under -race this proves the snapshot path never tears live state.
func TestConcurrentPipelineAndSnapshot(t *testing.T) {
	det, _ := trainDetector(t, false)
	reg := obs.NewRegistry()
	det.Instrument(reg)
	p, err := New(det, Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	dev := memometer.New()
	if err := dev.Configure(memometer.Config{Region: testDef, IntervalMicros: 10_000}); err != nil {
		t.Fatal(err)
	}
	dev.SetMetrics(reg)

	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := reg.Snapshot()
				if snap.Counters["pipeline.intervals"] > 0 && snap.Histograms["pipeline.analysis_micros"].Count == 0 {
					t.Error("intervals counted but analysis histogram empty")
					return
				}
				_ = p.Records()
				_ = p.Budget()
				_ = p.Alarms()
			}
		}()
	}

	// Simulation thread: per interval, snoop a burst of in-region
	// traffic, cross the boundary (buffer swap), collect, analyze.
	const intervals = 40
	rng := rand.New(rand.NewSource(7))
	for n := int64(0); n < intervals; n++ {
		start := n * 10_000
		for k := 0; k < 200; k++ {
			addr := testDef.AddrBase + uint64(rng.Intn(int(testDef.Size)))
			if err := dev.SnoopBurst(start+int64(k)*40, addr, 1+uint32(rng.Intn(8))); err != nil {
				t.Fatal(err)
			}
		}
		if err := dev.Tick(start + 10_000); err != nil {
			t.Fatal(err)
		}
		m, err := dev.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Process(m); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	readers.Wait()

	if got := len(p.Records()); got != intervals {
		t.Errorf("records = %d, want %d", got, intervals)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["memometer.swaps"]; got != intervals {
		t.Errorf("memometer.swaps = %d, want %d", got, intervals)
	}
	if got := snap.Counters["pipeline.intervals"]; got != intervals {
		t.Errorf("pipeline.intervals = %d, want %d", got, intervals)
	}
	if got := snap.Histograms["pipeline.analysis_micros"].Count; got != intervals {
		t.Errorf("analysis histogram count = %d, want %d", got, intervals)
	}
	if got := snap.Counters["memometer.snooped"]; got != intervals*200 {
		t.Errorf("memometer.snooped = %d, want %d", got, intervals*200)
	}
}
