package alarm

import (
	"errors"
	"testing"
)

func mustRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	r, err := NewRuntime(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func feed(r *Runtime, flags []bool) []Event {
	var evs []Event
	for i, f := range flags {
		if ev := r.Observe(f, int64(i)*10_000); ev != nil {
			evs = append(evs, *ev)
		}
	}
	return evs
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewRuntime(Config{RaiseAfter: -1}); !errors.Is(err, ErrConfig) {
		t.Errorf("negative RaiseAfter: %v", err)
	}
	if _, err := NewRuntime(Config{ClearAfter: -1}); !errors.Is(err, ErrConfig) {
		t.Errorf("negative ClearAfter: %v", err)
	}
	r := mustRuntime(t, Config{})
	if r.cfg.RaiseAfter != 2 || r.cfg.ClearAfter != 5 {
		t.Errorf("defaults = %+v", r.cfg)
	}
}

func TestRaiseAfterConsecutiveAnomalies(t *testing.T) {
	r := mustRuntime(t, Config{RaiseAfter: 3, ClearAfter: 2})
	evs := feed(r, []bool{true, true, false, true, true, true})
	// The streak resets at index 2; raise fires at index 5.
	if len(evs) != 1 || !evs[0].Raised || evs[0].Interval != 5 {
		t.Fatalf("events = %+v", evs)
	}
	if !r.raised {
		t.Error("not raised after raise event")
	}
	if evs[0].Time != 50_000 {
		t.Errorf("event time = %d", evs[0].Time)
	}
}

func TestClearAfterConsecutiveNormals(t *testing.T) {
	r := mustRuntime(t, Config{RaiseAfter: 1, ClearAfter: 3})
	evs := feed(r, []bool{true, false, true, false, false, false})
	// Raise at 0, flicker at 1-2 (raise stays; second raise NOT emitted
	// while raised), clear at 5.
	if len(evs) != 2 {
		t.Fatalf("events = %+v", evs)
	}
	if !evs[0].Raised || evs[0].Interval != 0 {
		t.Errorf("first event = %+v", evs[0])
	}
	if evs[1].Raised || evs[1].Interval != 5 {
		t.Errorf("second event = %+v", evs[1])
	}
	if r.raised {
		t.Error("still raised after clear")
	}
}

func TestSingleFlickerDoesNotRaise(t *testing.T) {
	// RaiseAfter=2 suppresses isolated false positives — the debouncing
	// rationale.
	r := mustRuntime(t, Config{RaiseAfter: 2, ClearAfter: 2})
	evs := feed(r, []bool{false, true, false, false, true, false, false})
	if len(evs) != 0 {
		t.Fatalf("isolated flickers raised: %+v", evs)
	}
}

func TestAnalyzeLatencyAndFalseRaises(t *testing.T) {
	r := mustRuntime(t, Config{RaiseAfter: 2, ClearAfter: 2})
	// False raise at intervals 1-2, clear, then the true attack from
	// interval 10 on.
	flags := []bool{false, true, true, false, false, false, false, false, false, false,
		true, true, true, true}
	feed(r, flags)
	rep := r.Analyze(10)
	if rep.Raises != 2 || rep.Clears != 1 {
		t.Errorf("raises/clears = %d/%d", rep.Raises, rep.Clears)
	}
	if rep.FalseRaises != 1 {
		t.Errorf("false raises = %d", rep.FalseRaises)
	}
	// Attack at 10, RaiseAfter=2 → raise at 11 → latency 1 interval.
	if rep.DetectionLatencyIntervals != 1 {
		t.Errorf("latency = %d", rep.DetectionLatencyIntervals)
	}
}

func TestAnalyzeCleanRun(t *testing.T) {
	r := mustRuntime(t, Config{})
	feed(r, make([]bool, 50))
	rep := r.Analyze(-1)
	if rep.Raises != 0 || rep.FalseRaises != -1 || rep.DetectionLatencyIntervals != -1 {
		t.Errorf("clean report = %+v", rep)
	}
}

func TestAnalyzeNeverDetected(t *testing.T) {
	r := mustRuntime(t, Config{RaiseAfter: 3})
	feed(r, []bool{false, false, true, false, true})
	rep := r.Analyze(2)
	if rep.DetectionLatencyIntervals != -1 {
		t.Errorf("latency = %d, want -1 (never raised)", rep.DetectionLatencyIntervals)
	}
	if rep.FalseRaises != 0 {
		t.Errorf("false raises = %d", rep.FalseRaises)
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	r := mustRuntime(t, Config{RaiseAfter: 1})
	feed(r, []bool{true})
	evs := r.Events()
	if len(evs) != 1 {
		t.Fatal("missing event")
	}
	evs[0].Interval = 999
	if r.Events()[0].Interval == 999 {
		t.Error("Events aliases internal state")
	}
}
