package memometer

import (
	"testing"

	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/obs"
	"github.com/memheatmap/mhm/internal/trace"
)

// The record path is annotated //mhm:hotpath (enforced by mhmlint); this
// test pins the runtime side of the same contract: steady-state snooping
// must not allocate, with or without metrics attached.
func TestRecordPathDoesNotAllocate(t *testing.T) {
	run := func(name string, d *Device) {
		var now int64
		if n := testing.AllocsPerRun(1000, func() {
			now++
			if err := d.Snoop(now, 0x1000+uint64(now)%0x1000); err != nil {
				t.Fatalf("Snoop: %v", err)
			}
		}); n != 0 {
			t.Errorf("%s: Snoop allocates %v per op", name, n)
		}
		if n := testing.AllocsPerRun(1000, func() {
			now++
			if err := d.SnoopBurst(now, 0x1000, 4); err != nil {
				t.Fatalf("SnoopBurst: %v", err)
			}
		}); n != 0 {
			t.Errorf("%s: SnoopBurst allocates %v per op", name, n)
		}
		if n := testing.AllocsPerRun(1000, func() {
			now++
			if err := d.Tick(now); err != nil {
				t.Fatalf("Tick: %v", err)
			}
		}); n != 0 {
			t.Errorf("%s: Tick allocates %v per op", name, n)
		}
		// Collecting each interval as it closes keeps SnoopBatch on its
		// hoisted loop rather than on the pending-MHM path.
		batch := make([]trace.Access, 8)
		var sp heatmap.Sparse
		if n := testing.AllocsPerRun(1000, func() {
			for i := range batch {
				now++
				batch[i] = trace.Access{Time: now, Addr: 0x1000 + uint64(now)%0x1000, Count: 2}
			}
			for off := 0; off < len(batch); {
				if d.HasPending() {
					if err := d.CollectSparse(&sp); err != nil {
						t.Fatalf("CollectSparse: %v", err)
					}
				}
				k, err := d.SnoopBatch(batch[off:])
				if err != nil {
					t.Fatalf("SnoopBatch: %v", err)
				}
				off += k
			}
		}); n != 0 {
			t.Errorf("%s: SnoopBatch allocates %v per op", name, n)
		}
	}

	d := mustDevice(t)
	run("bare", d)

	dm := mustDevice(t)
	dm.SetMetrics(obs.NewRegistry())
	run("with metrics", dm)

	// Interval boundaries swap the double buffer in place; crossing one
	// per call must stay allocation-free too (overruns included, since
	// nothing collects the pending MHM).
	db := mustDevice(t)
	step := testCfg().IntervalMicros
	var now int64
	if n := testing.AllocsPerRun(1000, func() {
		now += step
		if err := db.Snoop(now, 0x1234); err != nil {
			t.Fatalf("Snoop: %v", err)
		}
	}); n != 0 {
		t.Errorf("boundary crossing allocates %v per op", n)
	}
	// The same through SnoopBatch, collecting each closed interval:
	// every other event closes one, so each call runs the hoisted loop
	// up to that event and SnoopBurst for it.
	batch := make([]trace.Access, 4)
	var sp heatmap.Sparse
	if n := testing.AllocsPerRun(1000, func() {
		for i := range batch {
			now += step / 2
			batch[i] = trace.Access{Time: now, Addr: 0x1234, Count: 1}
		}
		for off := 0; off < len(batch); {
			if db.HasPending() {
				if err := db.CollectSparse(&sp); err != nil {
					t.Fatalf("CollectSparse: %v", err)
				}
			}
			k, err := db.SnoopBatch(batch[off:])
			if err != nil {
				t.Fatalf("SnoopBatch: %v", err)
			}
			off += k
		}
	}); n != 0 {
		t.Errorf("SnoopBatch boundary crossing allocates %v per op", n)
	}
}
