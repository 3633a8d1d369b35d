package obs

import (
	"math"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if r.Counter("c") != c {
		t.Error("counter not reused by name")
	}
	g := r.Gauge("g")
	g.Set(1.5)
	g.Add(2.5)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %g, want 4", got)
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{10, 100, 1000})
	for _, v := range []float64{1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	hs := r.Snapshot().Histograms["h"]
	if hs.Count != 5 {
		t.Errorf("count = %d", hs.Count)
	}
	if hs.Sum != 5556 {
		t.Errorf("sum = %g", hs.Sum)
	}
	wantBuckets := []uint64{2, 1, 1}
	for i, w := range wantBuckets {
		if hs.Buckets[i].Count != w {
			t.Errorf("bucket %d = %d, want %d", i, hs.Buckets[i].Count, w)
		}
	}
	if hs.Overflow != 1 {
		t.Errorf("overflow = %d", hs.Overflow)
	}
	if hs.Min != 1 || hs.Max != 5000 {
		t.Errorf("min/max = %g/%g", hs.Min, hs.Max)
	}
	if m := hs.Sum / float64(hs.Count); math.Abs(m-5556.0/5) > 1e-9 {
		t.Errorf("mean = %g", m)
	}
	// Quantiles are bucket-interpolated estimates: monotone and bounded.
	p50, p99 := hs.Quantile(0.5), hs.Quantile(0.99)
	if p50 < hs.Min || p99 > hs.Max || p50 > p99 {
		t.Errorf("quantiles not monotone in range: p50=%g p99=%g", p50, p99)
	}
}

func TestHistogramBoundaryValuesLandInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{10, 100})
	h.Observe(10) // exactly on a bound: le semantics, first bucket
	hs := r.Snapshot().Histograms["h"]
	if hs.Buckets[0].Count != 1 || hs.Buckets[1].Count != 0 {
		t.Errorf("boundary observation buckets = %+v", hs.Buckets)
	}
}

func TestEmptyHistogramSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", nil)
	hs := r.Snapshot().Histograms["h"]
	if hs.Count != 0 || hs.Min != 0 || hs.Max != 0 || hs.Quantile(0.5) != 0 {
		t.Errorf("empty histogram snapshot = %+v", hs)
	}
}

// TestNilSafety: a nil registry hands out nil metrics and every
// operation on them is a no-op — the "uninstrumented callers pay one
// predicate" contract.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil metrics")
	}
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	sw := h.Start()
	if sw.Stop() != 0 {
		t.Error("nil stopwatch measured time")
	}
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil metrics accumulated state")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

func TestStopwatchRecords(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", nil)
	sw := h.Start()
	micros := sw.Stop()
	if micros < 0 {
		t.Errorf("negative elapsed %g", micros)
	}
	if h.count.Load() != 1 {
		t.Errorf("stopwatch did not record: count=%d", h.count.Load())
	}
}

func TestStopwatchHandoff(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("stage.a", nil)
	b := r.Histogram("stage.b", nil)
	sw := a.Start().Handoff(b)
	if a.count.Load() != 1 {
		t.Errorf("Handoff did not record the first stage: count=%d", a.count.Load())
	}
	if micros := sw.Stop(); micros < 0 {
		t.Errorf("negative elapsed %g", micros)
	}
	if b.count.Load() != 1 {
		t.Errorf("handed-off stopwatch did not record: count=%d", b.count.Load())
	}
	// Nil combinations: record what is non-nil, never panic.
	var nilH *Histogram
	if sw := nilH.Start().Handoff(b); sw.Stop() < 0 || b.count.Load() != 2 {
		t.Error("nil→live handoff did not record the live stage")
	}
	if a.Start().Handoff(nil).Stop() != 0 {
		t.Error("live→nil handoff returned a live stopwatch")
	}
	if a.count.Load() != 2 {
		t.Errorf("live→nil handoff did not record the first stage: count=%d", a.count.Load())
	}
	if nilH.Start().Handoff(nil).Stop() != 0 {
		t.Error("nil→nil handoff not inert")
	}
}

// TestHotPathDoesNotAllocate is the acceptance guard: Observe, Add and
// the stopwatch pair must not allocate on the hot path.
func TestHotPathDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", LatencyBuckets)
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(3.14) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(123.4) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Start().Stop() }); n != 0 {
		t.Errorf("Stopwatch cycle allocates %v per op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Start().Handoff(h).Stop() }); n != 0 {
		t.Errorf("Handoff cycle allocates %v per op", n)
	}
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() { nilH.Observe(1); nilH.Start().Stop() }); n != 0 {
		t.Errorf("nil histogram path allocates %v per op", n)
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("level").Set(0.5)
	r.Histogram("lat", []float64{10, 100}).Observe(5)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Counters sorted by name, then gauges, then histograms.
	if !strings.HasPrefix(lines[0], "counter a.count 1") ||
		!strings.HasPrefix(lines[1], "counter b.count 2") ||
		!strings.HasPrefix(lines[2], "gauge   level 0.5") ||
		!strings.HasPrefix(lines[3], "hist    lat count=1") {
		t.Errorf("unexpected text layout:\n%s", out)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("events").Add(7)
	r.Gauge("depth").Set(2)
	h := r.Histogram("lat", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(50)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	s, err := ParseSnapshot([]byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Counters["events"] != 7 || s.Gauges["depth"] != 2 {
		t.Errorf("round trip scalars = %+v", s)
	}
	hs := s.Histograms["lat"]
	if hs.Count != 2 || hs.Overflow != 1 || hs.Buckets[0].Count != 1 {
		t.Errorf("round trip histogram = %+v", hs)
	}
	if _, err := ParseSnapshot([]byte("{not json")); err == nil {
		t.Error("malformed snapshot accepted")
	}
}
