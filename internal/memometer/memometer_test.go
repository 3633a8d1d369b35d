package memometer

import (
	"errors"
	"testing"

	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/trace"
)

func testCfg() Config {
	return Config{
		Region:         heatmap.Def{AddrBase: 0x1000, Size: 0x1000, Gran: 0x100}, // 16 cells
		IntervalMicros: 1000,
	}
}

func mustDevice(t *testing.T) *Device {
	t.Helper()
	d := New()
	if err := d.Configure(testCfg()); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"ok", testCfg(), nil},
		{"bad region", Config{Region: heatmap.Def{Size: 10, Gran: 3}, IntervalMicros: 10}, heatmap.ErrConfig},
		{"zero interval", Config{Region: heatmap.Def{Size: 0x100, Gran: 0x100}, IntervalMicros: 0}, ErrConfig},
		{"too many cells", Config{
			Region:         heatmap.Def{AddrBase: 0, Size: (MaxCells + 1) * 0x100, Gran: 0x100},
			IntervalMicros: 10,
		}, ErrConfig},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.want == nil && err != nil {
			t.Errorf("%s: unexpected %v", c.name, err)
		}
		if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestPaperRegionFitsOnChipMemory(t *testing.T) {
	// The paper's 1,472-cell MHM must fit the 8 KB on-chip memory
	// (max ~2,000 cells).
	cfg := Config{
		Region:         heatmap.Def{AddrBase: 0xC0008000, Size: 3013284, Gran: 2048},
		IntervalMicros: 10000,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("paper config rejected: %v", err)
	}
	if cfg.Region.Cells() != 1472 || MaxCells != 2048 {
		t.Errorf("cells=%d maxcells=%d", cfg.Region.Cells(), MaxCells)
	}
}

func TestUnconfiguredDevice(t *testing.T) {
	d := New()
	if err := d.Snoop(0, 0x1000); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("Snoop: %v", err)
	}
	if err := d.Tick(0); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("Tick: %v", err)
	}
	if _, err := d.Collect(); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("Collect: %v", err)
	}
}

func TestSnoopFiltersAddresses(t *testing.T) {
	d := mustDevice(t)
	if err := d.Snoop(10, 0x1000); err != nil { // in region
		t.Fatal(err)
	}
	if err := d.Snoop(20, 0x0FFF); err != nil { // below
		t.Fatal(err)
	}
	if err := d.Snoop(30, 0x2000); err != nil { // above
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Snooped != 3 || st.Accepted != 1 || st.AcceptedAccesses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIntervalBoundaryProducesMHM(t *testing.T) {
	d := mustDevice(t)
	if d.HasPending() {
		t.Fatal("pending before any interval")
	}
	if err := d.Snoop(100, 0x1100); err != nil {
		t.Fatal(err)
	}
	if err := d.SnoopBurst(500, 0x1200, 9); err != nil {
		t.Fatal(err)
	}
	// Crossing the boundary (t=1000) completes the first MHM.
	if err := d.Snoop(1001, 0x1300); err != nil {
		t.Fatal(err)
	}
	if !d.HasPending() {
		t.Fatal("no pending MHM after boundary")
	}
	m, err := d.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if m.Start != 0 || m.End != 1000 {
		t.Errorf("interval = [%d, %d), want [0, 1000)", m.Start, m.End)
	}
	if m.Counts[1] != 1 || m.Counts[2] != 9 {
		t.Errorf("counts = %v", m.Counts[:4])
	}
	if m.Total() != 10 {
		t.Errorf("Total = %d", m.Total())
	}
	// The post-boundary snoop belongs to the second interval.
	if err := d.Tick(2000); err != nil {
		t.Fatal(err)
	}
	m2, err := d.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Start != 1000 || m2.End != 2000 || m2.Counts[3] != 1 {
		t.Errorf("second MHM = [%d,%d) counts[3]=%d", m2.Start, m2.End, m2.Counts[3])
	}
}

func TestQuietIntervalsViaTick(t *testing.T) {
	d := mustDevice(t)
	// Jump across 3 boundaries with no bus traffic: boundaries still
	// fire; hardware keeps only the most recent completed MHM (two
	// dropped as overruns because nobody collected).
	if err := d.Tick(3500); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Intervals != 3 {
		t.Errorf("Intervals = %d, want 3", st.Intervals)
	}
	if st.Overruns != 2 {
		t.Errorf("Overruns = %d, want 2", st.Overruns)
	}
	m, err := d.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if m.Start != 2000 || m.End != 3000 || m.Total() != 0 {
		t.Errorf("kept MHM = [%d,%d) total=%d", m.Start, m.End, m.Total())
	}
}

func TestDoubleBufferingContinuity(t *testing.T) {
	// Recording continues in the second buffer while the first awaits
	// analysis: accesses after the boundary land in the next MHM even
	// before Collect.
	d := mustDevice(t)
	if err := d.Snoop(100, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := d.Snoop(1100, 0x1F00); err != nil { // into interval 2
		t.Fatal(err)
	}
	if !d.HasPending() {
		t.Fatal("interval 1 not pending")
	}
	first, err := d.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if first.Counts[0] != 1 || first.Counts[15] != 0 {
		t.Errorf("first interval counts wrong: %v", first.Counts)
	}
	if err := d.Tick(2000); err != nil {
		t.Fatal(err)
	}
	second, err := d.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if second.Counts[15] != 1 || second.Counts[0] != 0 {
		t.Errorf("second interval counts wrong: %v", second.Counts)
	}
	if d.Stats().Overruns != 0 {
		t.Errorf("unexpected overruns: %d", d.Stats().Overruns)
	}
}

func TestCollectWithoutPending(t *testing.T) {
	d := mustDevice(t)
	if _, err := d.Collect(); !errors.Is(err, ErrNotReady) {
		t.Errorf("Collect: %v, want ErrNotReady", err)
	}
}

func TestTimeMonotonicity(t *testing.T) {
	d := mustDevice(t)
	if err := d.Snoop(500, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := d.Snoop(400, 0x1000); !errors.Is(err, ErrConfig) {
		t.Errorf("backwards snoop: %v", err)
	}
	if err := d.Tick(100); !errors.Is(err, ErrConfig) {
		t.Errorf("backwards tick: %v", err)
	}
}

func TestZeroCountBurstIgnored(t *testing.T) {
	d := mustDevice(t)
	if err := d.SnoopBurst(10, 0x1000, 0); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Accepted != 0 || st.AcceptedAccesses != 0 {
		t.Errorf("zero burst counted: %+v", st)
	}
}

func TestReconfigureResetsState(t *testing.T) {
	d := mustDevice(t)
	if err := d.Tick(2500); err != nil {
		t.Fatal(err)
	}
	if err := d.Configure(testCfg()); err != nil {
		t.Fatal(err)
	}
	if d.HasPending() {
		t.Error("pending survived reconfigure")
	}
	if st := d.Stats(); st.Intervals != 0 || st.Snooped != 0 {
		t.Errorf("stats survived reconfigure: %+v", st)
	}
	if err := d.Tick(10); err != nil {
		t.Errorf("clock not reset: %v", err)
	}
}

// TestSnoopBatchEquivalentToPerEvent pins the batched ingest contract:
// feeding a time-ordered stream through SnoopBatch with collect-at-stop
// resubmission produces the same maps and stats as per-event SnoopBurst
// with drain-after-every-event, and SnoopBatch pauses exactly at the
// event that completes an MHM.
func TestSnoopBatchEquivalentToPerEvent(t *testing.T) {
	// 3.5 intervals of traffic: boundaries inside and between batches.
	var events []trace.Access
	for i := int64(0); i < 35; i++ {
		events = append(events, trace.Access{
			Time:  i * 100, // one event per 100 µs, interval 1000 µs
			Addr:  0x1000 + uint64(i%16)*0x100,
			Count: uint32(1 + i%3),
		})
	}

	ref := mustDevice(t)
	var refMaps []*heatmap.HeatMap
	for _, a := range events {
		if err := ref.SnoopBurst(a.Time, a.Addr, a.Count); err != nil {
			t.Fatal(err)
		}
		for ref.HasPending() {
			m, err := ref.Collect()
			if err != nil {
				t.Fatal(err)
			}
			refMaps = append(refMaps, m)
		}
	}

	dev := mustDevice(t)
	var maps []*heatmap.HeatMap
	for off := 0; off < len(events); {
		c, err := dev.SnoopBatch(events[off:])
		if err != nil {
			t.Fatal(err)
		}
		if c == 0 {
			t.Fatal("SnoopBatch made no progress")
		}
		off += c
		if off < len(events) && !dev.HasPending() {
			t.Fatalf("SnoopBatch stopped at %d without a pending MHM", off)
		}
		for dev.HasPending() {
			m, err := dev.Collect()
			if err != nil {
				t.Fatal(err)
			}
			maps = append(maps, m)
		}
	}

	if len(maps) != len(refMaps) {
		t.Fatalf("batched path produced %d maps, per-event %d", len(maps), len(refMaps))
	}
	for i := range refMaps {
		d, err := maps[i].L1Distance(refMaps[i])
		if err != nil {
			t.Fatal(err)
		}
		if d != 0 {
			t.Errorf("interval %d differs between batched and per-event ingest (L1=%d)", i, d)
		}
	}
	if dev.Stats() != ref.Stats() {
		t.Errorf("stats diverge: batched %+v, per-event %+v", dev.Stats(), ref.Stats())
	}
}

// TestSnoopBatchPropagatesErrors checks the consumed-count contract on
// a malformed (time-reversed) stream.
func TestSnoopBatchPropagatesErrors(t *testing.T) {
	dev := mustDevice(t)
	events := []trace.Access{
		{Time: 100, Addr: 0x1000, Count: 1},
		{Time: 50, Addr: 0x1000, Count: 1}, // time goes backwards
		{Time: 200, Addr: 0x1000, Count: 1},
	}
	n, err := dev.SnoopBatch(events)
	if err == nil {
		t.Fatal("time-reversed batch accepted")
	}
	if n != 1 {
		t.Fatalf("consumed %d events before the error, want 1", n)
	}
}

func TestCollectSparseMatchesCollect(t *testing.T) {
	// Two identically-driven devices: one collected densely, one
	// sparsely. The sparse collection must densify to the same MHM and
	// leave the device in the same state (buffer recycled, pending
	// cleared).
	dd := mustDevice(t)
	ds := mustDevice(t)
	events := []trace.Access{
		{Time: 100, Addr: 0x1000, Count: 3},
		{Time: 200, Addr: 0x1F00, Count: 1},
		{Time: 950, Addr: 0x1200, Count: 7},
		{Time: 1100, Addr: 0x1000, Count: 2}, // crosses into interval 2
	}
	for _, a := range events {
		if err := dd.SnoopBurst(a.Time, a.Addr, a.Count); err != nil {
			t.Fatal(err)
		}
		if err := ds.SnoopBurst(a.Time, a.Addr, a.Count); err != nil {
			t.Fatal(err)
		}
	}
	dense, err := dd.Collect()
	if err != nil {
		t.Fatal(err)
	}
	var sp heatmap.Sparse
	if err := ds.CollectSparse(&sp); err != nil {
		t.Fatal(err)
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("CollectSparse produced invalid runs: %v", err)
	}
	back := sp.Dense(nil)
	if back.Def != dense.Def || back.Start != dense.Start || back.End != dense.End {
		t.Errorf("sparse header %+v [%d,%d], dense %+v [%d,%d]",
			back.Def, back.Start, back.End, dense.Def, dense.Start, dense.End)
	}
	for i := range dense.Counts {
		if back.Counts[i] != dense.Counts[i] {
			t.Fatalf("cell %d: sparse %d, dense %d", i, back.Counts[i], dense.Counts[i])
		}
	}
	if ds.HasPending() {
		t.Error("pending not cleared after CollectSparse")
	}
	// Device keeps double-buffering: next interval still collects.
	if err := ds.Tick(2000); err != nil {
		t.Fatal(err)
	}
	if err := ds.CollectSparse(&sp); err != nil {
		t.Fatal(err)
	}
	if got := sp.Dense(nil).Counts[0]; got != 2 {
		t.Errorf("interval 2 cell 0 = %d, want 2", got)
	}
}

func TestCollectSparseErrors(t *testing.T) {
	var sp heatmap.Sparse
	if err := New().CollectSparse(&sp); !errors.Is(err, ErrNotConfigured) {
		t.Errorf("unconfigured CollectSparse: %v, want ErrNotConfigured", err)
	}
	d := mustDevice(t)
	if err := d.CollectSparse(&sp); !errors.Is(err, ErrNotReady) {
		t.Errorf("CollectSparse without pending: %v, want ErrNotReady", err)
	}
}

func TestCollectSparseAllocationFree(t *testing.T) {
	d := mustDevice(t)
	var sp heatmap.Sparse
	// Warm the backing arrays once.
	if err := d.Snoop(100, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := d.Tick(1000); err != nil {
		t.Fatal(err)
	}
	if err := d.CollectSparse(&sp); err != nil {
		t.Fatal(err)
	}
	clock := int64(1000)
	allocs := testing.AllocsPerRun(50, func() {
		if err := d.Snoop(clock+100, 0x1000); err != nil {
			t.Fatal(err)
		}
		clock += 1000
		if err := d.Tick(clock); err != nil {
			t.Fatal(err)
		}
		if err := d.CollectSparse(&sp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm CollectSparse cycle allocates %.1f times, want 0", allocs)
	}
}
