package memometer

import (
	"maps"
	"math"
	"testing"

	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/obs"
	"github.com/memheatmap/mhm/internal/trace"
)

// fuzzCfg is a 16-cell region whose last cell is partial (0x80 of 0x100
// bytes), so the range check and the shift meet at the region end.
func fuzzCfg() Config {
	return Config{
		Region:         heatmap.Def{AddrBase: 0x1000, Size: 0xF80, Gran: 0x100},
		IntervalMicros: 1000,
	}
}

// fuzzEvents decodes three bytes per event into a stream that mixes the
// cases SnoopBatch must hand to the per-event path with the ones it
// takes itself. The generator's clock only moves forward; an event that
// goes back in time is emitted below it.
func fuzzEvents(stream []byte) []trace.Access {
	const maxEvents = 4096
	cfg := fuzzCfg()
	base, size, iv := cfg.Region.AddrBase, cfg.Region.Size, cfg.IntervalMicros
	var events []trace.Access
	var now int64
	for k := 0; k+3 <= len(stream) && len(events) < maxEvents; k += 3 {
		b0, b1, b2 := stream[k], stream[k+1], stream[k+2]
		t := now
		switch b0 % 8 {
		case 0: // same time
		case 1: // back in time
			t = now - 1 - int64(b0>>3)
		case 2: // exactly on the next boundary
			now = (now/iv + 1) * iv
			t = now
		case 3: // across one to four boundaries
			now += iv*int64(1+b0>>3%4) + int64(b2)
			t = now
		default: // inside the interval, most of the time
			now += int64(b0>>3) * 7
			t = now
		}
		var addr uint64
		switch b1 % 8 {
		case 0: // below the base
			addr = base - 1 - uint64(b2)
		case 1: // at or past the end
			addr = base + size + uint64(b2)
		case 2: // in the last, partial cell
			addr = base + size - 0x80 + uint64(b2)%0x80
		case 3: // the top of the address space
			addr = math.MaxUint64 - uint64(b2)
		default:
			addr = base + uint64(b2)*16%size
		}
		var count uint32
		switch b1 >> 3 % 4 {
		case 0:
			count = 0
		case 1: // saturates the cell
			count = math.MaxUint32 - uint32(b2)
		case 2: // saturates the second time
			count = math.MaxUint32/2 + uint32(b2)
		default:
			count = 1 + uint32(b2%7)
		}
		events = append(events, trace.Access{Time: t, Addr: addr, Count: count})
	}
	return events
}

// FuzzSnoopBatchMatchesPerEvent checks SnoopBatch against SnoopBurst fed
// one event at a time on fuzzed streams: time steps that go back, land
// on a boundary or cross several intervals; addresses below, past and at
// the end of the region; counts of 0 and near 2³²−1. The stream is cut
// into batches of fuzzed sizes. At every event that leaves an MHM
// pending, a fuzzed policy collects it at once (alternating Collect and
// CollectSparse on the batched device; the reference always Collects)
// or skips the collect, so later boundaries overrun. Consumed counts,
// errors, every map, Stats and the memometer obs counters must agree,
// and every map must hold exactly the accepted events of its interval,
// counted apart from any device: the spare memory a boundary swaps in is
// never cleared there, so a collector that left it dirty would corrupt
// both devices alike.
func FuzzSnoopBatchMatchesPerEvent(f *testing.F) {
	inOrder := make([]byte, 0, 3*64)
	for i := 0; i < 64; i++ {
		inOrder = append(inOrder, byte(4+8*(i%32)), byte(4+8*3), byte(i*11))
	}
	f.Add(inOrder, []byte{7, 1, 30}, []byte{1})
	f.Add(inOrder, []byte{255}, []byte{1, 2, 0})
	f.Add([]byte{
		4, 4, 1, 1, 4, 2, // a step back
		2, 8, 3, 4, 12, 4, // on a boundary, then saturate
		3, 16, 5, 4, 12, 4, 11, 17, 200, // across intervals, past the end
		0, 2, 0x7f, 4, 3, 1, 4, 0, 0, // last cell, top of memory, below base
		4, 25, 0, 4, 26, 0x7f, // one past the end, the last byte
	}, []byte{2, 0, 5}, []byte{0, 1, 2})
	f.Add([]byte{27, 12, 1, 27, 12, 2, 27, 12, 3, 3, 20, 4}, []byte{1}, []byte{0})
	// Two overruns in a row, then a collect: the map must not keep the
	// counts of the interval whose memory it reuses.
	f.Add([]byte{4, 28, 1, 3, 28, 32, 3, 28, 64, 3, 28, 0}, []byte{255}, []byte{1, 0, 0, 1})

	f.Fuzz(func(t *testing.T, stream, cuts, policy []byte) {
		events := fuzzEvents(stream)
		if len(policy) == 0 {
			policy = []byte{1}
		}
		regRef, regBat := obs.NewRegistry(), obs.NewRegistry()
		ref, bat := New(), New()
		for _, d := range []*Device{ref, bat} {
			if err := d.Configure(fuzzCfg()); err != nil {
				t.Fatal(err)
			}
		}
		ref.SetMetrics(regRef)
		bat.SetMetrics(regBat)

		// perInterval accumulates the accepted events by interval.
		region, iv := fuzzCfg().Region, fuzzCfg().IntervalMicros
		perInterval := map[int64]*heatmap.HeatMap{}
		accept := func(batch []trace.Access) {
			for _, a := range batch {
				m := perInterval[a.Time/iv]
				if m == nil {
					m = &heatmap.HeatMap{Def: region, Counts: make([]uint32, region.Cells())}
					perInterval[a.Time/iv] = m
				}
				m.Record(a.Addr, a.Count)
			}
		}

		var sp heatmap.Sparse
		collects := 0
		// settle applies the policy to the pending MHM left by event i.
		settle := func(i int) {
			if policy[i%len(policy)]%3 == 0 {
				return // skip: the next boundary overruns
			}
			want, err := ref.Collect()
			if err != nil {
				t.Fatalf("event %d: reference Collect: %v", i, err)
			}
			var got *heatmap.HeatMap
			if collects%2 == 0 {
				if got, err = bat.Collect(); err != nil {
					t.Fatalf("event %d: Collect: %v", i, err)
				}
			} else {
				if err := bat.CollectSparse(&sp); err != nil {
					t.Fatalf("event %d: CollectSparse: %v", i, err)
				}
				if err := sp.Validate(); err != nil {
					t.Fatalf("event %d: CollectSparse runs: %v", i, err)
				}
				got = sp.Dense(nil)
			}
			collects++
			sameMap(t, i, got, want)
			exp := &heatmap.HeatMap{Def: region, Start: want.Start, End: want.Start + iv, Counts: make([]uint32, region.Cells())}
			if m := perInterval[want.Start/iv]; m != nil {
				copy(exp.Counts, m.Counts)
			}
			sameMap(t, i, want, exp)
		}

		for off, c := 0, 0; off < len(events); c++ {
			size := len(events) - off
			if len(cuts) > 0 {
				size = min(size, 1+int(cuts[c%len(cuts)]))
			}
			batch := events[off : off+size]

			// The reference consumes the same batch one event at a time,
			// stopping where SnoopBatch must stop.
			wantN, wantErr := len(batch), error(nil)
			for j, a := range batch {
				if err := ref.SnoopBurst(a.Time, a.Addr, a.Count); err != nil {
					wantN, wantErr = j, err
					break
				}
				if ref.HasPending() {
					wantN = j + 1
					break
				}
			}
			gotN, gotErr := bat.SnoopBatch(batch)
			if gotN != wantN || !sameErr(gotErr, wantErr) {
				t.Fatalf("batch at %d: SnoopBatch = %d, %v; per event %d, %v",
					off, gotN, gotErr, wantN, wantErr)
			}
			accept(batch[:gotN])
			off += gotN
			if gotErr != nil {
				off++ // drop the rejected event; the device state is unchanged
			} else if bat.HasPending() {
				settle(off - 1)
			}
			sameState(t, off, bat, ref, regBat, regRef)
		}

		// Close the last interval and one quiet one after it.
		end := bat.lastTime + 2*iv
		for _, d := range []*Device{ref, bat} {
			if err := d.Tick(end); err != nil {
				t.Fatal(err)
			}
		}
		if bat.HasPending() {
			settle(len(events))
		}
		sameState(t, len(events), bat, ref, regBat, regRef)
	})
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

func sameMap(t *testing.T, i int, got, want *heatmap.HeatMap) {
	t.Helper()
	if got.Def != want.Def || got.Start != want.Start || got.End != want.End {
		t.Fatalf("event %d: map %+v [%d,%d), reference %+v [%d,%d)",
			i, got.Def, got.Start, got.End, want.Def, want.Start, want.End)
	}
	if len(got.Counts) != len(want.Counts) {
		t.Fatalf("event %d: %d cells, reference %d", i, len(got.Counts), len(want.Counts))
	}
	for c := range want.Counts {
		if got.Counts[c] != want.Counts[c] {
			t.Fatalf("event %d: cell %d = %d, reference %d", i, c, got.Counts[c], want.Counts[c])
		}
	}
}

func sameState(t *testing.T, i int, bat, ref *Device, regBat, regRef *obs.Registry) {
	t.Helper()
	if bat.HasPending() != ref.HasPending() {
		t.Fatalf("event %d: pending %v, reference %v", i, bat.HasPending(), ref.HasPending())
	}
	if bat.Stats() != ref.Stats() {
		t.Fatalf("event %d: stats %+v, reference %+v", i, bat.Stats(), ref.Stats())
	}
	if bat.lastTime != ref.lastTime || bat.started != ref.started {
		t.Fatalf("event %d: clock %d/%d, reference %d/%d",
			i, bat.lastTime, bat.started, ref.lastTime, ref.started)
	}
	got, want := regBat.Snapshot(), regRef.Snapshot()
	if !maps.Equal(got.Counters, want.Counters) || !maps.Equal(got.Gauges, want.Gauges) {
		t.Fatalf("event %d: metrics %v %v, reference %v %v",
			i, got.Counters, got.Gauges, want.Counters, want.Gauges)
	}
}
