package fleet

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"github.com/memheatmap/mhm/internal/alarm"
	"github.com/memheatmap/mhm/internal/obs"
)

// runSim builds and runs one simulation, failing the test on any error.
func runSim(t *testing.T, cfg SimConfig) (*Sim, *SimResult) {
	t.Helper()
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return s, res
}

func TestSimNominalRun(t *testing.T) {
	tr := &Trace{}
	_, res := runSim(t, SimConfig{
		Streams: 64, Seed: 1, HorizonMicros: 100_000, Trace: tr,
	})
	if res.Submitted == 0 || res.Admitted == 0 {
		t.Fatalf("no traffic: %+v", res)
	}
	if res.Shed != 0 {
		t.Fatalf("nominal run shed %d intervals:\n%s", res.Shed, tr.Bytes())
	}
	// ~10 intervals per stream over the horizon.
	if res.Submitted < 9*64 || res.Submitted > 11*64 {
		t.Fatalf("submitted %d, want ~%d", res.Submitted, 10*64)
	}
	if len(res.Alarms) != 0 {
		t.Fatalf("clean workload raised %d alarms", len(res.Alarms))
	}
	if res.P99IntervalMicros <= 0 {
		t.Fatalf("p99 interval latency %g", res.P99IntervalMicros)
	}
}

// TestSimDeterminism is the tentpole acceptance gate: two runs with the
// same seed — full fault script, autoscaling on, parallel scoring at
// different worker counts — must produce byte-identical decision traces
// and identical alarm sequences at 10k streams, including under -race.
func TestSimDeterminism(t *testing.T) {
	streams := 10_000
	if testing.Short() {
		streams = 1_000
	}
	cfg := SimConfig{
		Streams:       streams,
		Seed:          42,
		HorizonMicros: 120_000,
		Shards:        8,
		QueueDepth:    64,
		Scale:         &ScaleConfig{MinShards: 2, MaxShards: 64, CooldownMicros: 20_000},
		Faults: []Fault{
			{Kind: FaultOverload, FromMicros: 20_000, UntilMicros: 60_000,
				StreamLo: 0, StreamHi: streams / 2, Factor: 8},
			{Kind: FaultStall, FromMicros: 30_000, UntilMicros: 50_000, Factor: 20},
			{Kind: FaultAnomaly, FromMicros: 40_000, UntilMicros: 90_000,
				StreamLo: 0, StreamHi: 32},
			{Kind: FaultSwap, StreamLo: 0, StreamHi: streams / 4, SwapInterval: 5},
		},
	}

	type outcome struct {
		trace  []byte
		res    *SimResult
		alarms []AlarmEvent
	}
	run := func(workers int) outcome {
		c := cfg
		c.Workers = workers
		c.Trace = &Trace{}
		_, res := runSim(t, c)
		return outcome{trace: c.Trace.Bytes(), res: res, alarms: res.Alarms}
	}

	a := run(1)
	b := run(8)
	if !bytes.Equal(a.trace, b.trace) {
		t.Fatalf("decision traces differ between runs (%d vs %d lines)",
			bytes.Count(a.trace, []byte("\n")), bytes.Count(b.trace, []byte("\n")))
	}
	if len(a.alarms) != len(b.alarms) {
		t.Fatalf("alarm counts differ: %d vs %d", len(a.alarms), len(b.alarms))
	}
	for i := range a.alarms {
		if a.alarms[i] != b.alarms[i] {
			t.Fatalf("alarm %d differs: %+v vs %+v", i, a.alarms[i], b.alarms[i])
		}
	}
	// Scalar summaries must agree too (Alarms compared above).
	ar, br := *a.res, *b.res
	ar.Alarms, br.Alarms = nil, nil
	if !reflect.DeepEqual(ar, br) {
		t.Fatalf("summaries differ:\n%+v\n%+v", ar, br)
	}
	if a.res.Shed == 0 {
		t.Fatal("overload fault did not trigger shedding")
	}
	if len(a.alarms) == 0 {
		t.Fatal("anomaly fault raised no alarms")
	}
	if a.res.Resizes == 0 {
		t.Fatal("stall fault did not trigger autoscaling")
	}
	if tl := bytes.Count(a.trace, []byte("\n")); tl == 0 {
		t.Fatal("empty decision trace")
	}
}

func TestSimOverloadShedsOnlyAboveCapacity(t *testing.T) {
	// Nominal: 64 streams, ample shards and queue — zero shed.
	_, nominal := runSim(t, SimConfig{
		Streams: 64, Seed: 7, HorizonMicros: 100_000, Shards: 4,
	})
	if nominal.Shed != 0 {
		t.Fatalf("nominal run shed %d", nominal.Shed)
	}
	// Overloaded: same fleet, half the streams submit at 32x rate into
	// tiny queues — shedding must engage, and fairly: unaffected streams
	// keep their cadence.
	tr := &Trace{}
	_, over := runSim(t, SimConfig{
		Streams: 64, Seed: 7, HorizonMicros: 100_000, Shards: 2,
		QueueDepth: 8, MaxPerStream: 2, ServiceMicros: 400, Trace: tr,
		Faults: []Fault{{Kind: FaultOverload, FromMicros: 0,
			StreamLo: 0, StreamHi: 32, Factor: 32}},
	})
	if over.Shed == 0 {
		t.Fatal("overload did not shed")
	}
	// Per-stream fairness: the shed log must hit the overloading streams,
	// and the stream-cap rule (not just queue-full) must appear — the cap
	// is what stops one hot stream from monopolizing a queue.
	if !strings.Contains(string(tr.Bytes()), "reason="+ShedStreamCap) {
		t.Fatalf("no %s sheds in trace", ShedStreamCap)
	}
}

func TestSimAnomalyFaultRaisesAndClears(t *testing.T) {
	_, res := runSim(t, SimConfig{
		Streams: 16, Seed: 3, HorizonMicros: 400_000,
		// θ0.5 plus a 3-interval debounce keeps clean streams quiet over
		// the long horizon (isolated false positives cannot raise); the
		// inverted-pattern anomaly holds for 15 straight intervals.
		Quantile: 0.005,
		Alarm:    alarm.Config{RaiseAfter: 3, ClearAfter: 3},
		Faults: []Fault{{Kind: FaultAnomaly, FromMicros: 50_000,
			UntilMicros: 200_000, StreamLo: 4, StreamHi: 8}},
	})
	raised := map[int]bool{}
	cleared := map[int]bool{}
	for _, ev := range res.Alarms {
		if ev.Stream < 4 || ev.Stream >= 8 {
			t.Fatalf("alarm on unaffected stream %d", ev.Stream)
		}
		if ev.Raised {
			raised[ev.Stream] = true
		} else {
			if !raised[ev.Stream] {
				t.Fatalf("stream %d cleared before raising", ev.Stream)
			}
			cleared[ev.Stream] = true
		}
		if ev.DeliveredMicros < ev.AtMicros {
			t.Fatalf("alarm delivered before its interval ended: %+v", ev)
		}
	}
	for s := 4; s < 8; s++ {
		if !raised[s] {
			t.Fatalf("stream %d never raised", s)
		}
		if !cleared[s] {
			t.Fatalf("stream %d never cleared after the fault window", s)
		}
	}
}

func TestSimSwapFaultAppliesAtBoundary(t *testing.T) {
	sim, res := runSim(t, SimConfig{
		Streams: 8, Seed: 5, HorizonMicros: 200_000,
		Faults: []Fault{{Kind: FaultSwap, StreamLo: 0, StreamHi: 4, SwapInterval: 3}},
	})
	if res.SwapsScheduled != 4 {
		t.Fatalf("scheduled %d swaps, want 4", res.SwapsScheduled)
	}
	for s := 0; s < 8; s++ {
		sl := &sim.Registry().slots[s]
		sl.mu.Lock()
		m := sl.cur
		sl.mu.Unlock()
		want := 1
		if s < 4 {
			want = 2 // past the boundary, the refreshed model is live
		}
		if m.version != want {
			t.Fatalf("stream %d on model v%d, want v%d", s, m.version, want)
		}
	}
}

func TestSimAutoscaleUpAndDown(t *testing.T) {
	tr := &Trace{}
	reg := obs.NewRegistry()
	_, res := runSim(t, SimConfig{
		Streams: 256, Seed: 11, HorizonMicros: 600_000, Shards: 2,
		QueueDepth: 16, ServiceMicros: 100, Trace: tr, Metrics: reg,
		Scale: &ScaleConfig{MinShards: 2, MaxShards: 32,
			HighLatencyMicros: 2_000, LowLatencyMicros: 500, CooldownMicros: 30_000},
		Faults: []Fault{{Kind: FaultStall, FromMicros: 50_000,
			UntilMicros: 250_000, Factor: 40}},
	})
	if res.Resizes == 0 {
		t.Fatalf("stall window triggered no resizes:\n%s", tr.Bytes())
	}
	trace := string(tr.Bytes())
	if !strings.Contains(trace, "resize") {
		t.Fatal("no resize lines in trace")
	}
	// The stall must scale the fleet up...
	up := false
	for _, ln := range strings.Split(trace, "\n") {
		if strings.Contains(ln, "reason=scale-up") {
			up = true
		}
	}
	if !up {
		t.Fatalf("no scale-up decision in trace:\n%s", trace)
	}
	snap := reg.Snapshot()
	if snap.Counters["fleet.resizes"] == 0 {
		t.Fatal("fleet.resizes counter not incremented")
	}
	if snap.Gauges["fleet.shards"] != float64(res.FinalShards) {
		t.Fatalf("fleet.shards gauge %g, final shards %d",
			snap.Gauges["fleet.shards"], res.FinalShards)
	}
}

func TestSimConfigValidation(t *testing.T) {
	bad := []SimConfig{
		{Streams: 0},
		{Streams: 4, HorizonMicros: -1},
		{Streams: 4, JitterMicros: 20_000},
		{Streams: 4, Shards: -1},
		{Streams: 4, QueueDepth: -1},
		{Streams: 4, MaxPerStream: -1},
		{Streams: 4, HighWaterFrac: 1.5},
		{Streams: 4, ServiceMicros: -1},
		{Streams: 4, Faults: []Fault{{Kind: "bogus"}}},
		{Streams: 4, Faults: []Fault{{Kind: FaultOverload, Factor: 0}}},
		{Streams: 4, Faults: []Fault{{Kind: FaultSwap, SwapInterval: -1}}},
		{Streams: 4, Faults: []Fault{{Kind: FaultAnomaly, StreamLo: 2, StreamHi: 9}}},
	}
	for i, cfg := range bad {
		if _, err := NewSim(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
}
