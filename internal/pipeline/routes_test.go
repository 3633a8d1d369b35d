package pipeline_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/memheatmap/mhm/internal/alarm"
	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/fleet"
	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/memometer"
	"github.com/memheatmap/mhm/internal/obs"
	"github.com/memheatmap/mhm/internal/pca"
	"github.com/memheatmap/mhm/internal/pipeline"
	"github.com/memheatmap/mhm/internal/trace"
)

const (
	routeCells     = 64
	routeIntervals = 160
	routeMicros    = 10_000
	routeQuantile  = 0.01
)

var routeDef = heatmap.Def{AddrBase: 0x1000, Size: routeCells * 256, Gran: 256}

// routeCounts draws one interval's cell counts: a blend of two hot
// blocks whose mix follows a three-phase cycle, or, for an anomalous
// interval, a mix the cycle never visits.
func routeCounts(rng *rand.Rand, phase int, anomalous bool) []uint32 {
	wa := []float64{1, 0.2, 0.6}[phase%3]
	if anomalous {
		wa = 0.45
	}
	counts := make([]uint32, routeCells)
	for i := range counts {
		base := 0.0
		switch {
		case i < 16:
			base = wa * 1000
		case i >= 32 && i < 48:
			base = (1 - wa) * 1000
		}
		if base > 0 {
			counts[i] = uint32(base * (1 + 0.05*(2*rng.Float64()-1)))
		}
	}
	return counts
}

func routeDetector(t *testing.T, rng *rand.Rand) *core.Detector {
	t.Helper()
	maps := func(n int) []*heatmap.HeatMap {
		out := make([]*heatmap.HeatMap, n)
		for i := range out {
			m, err := heatmap.New(routeDef)
			if err != nil {
				t.Fatal(err)
			}
			copy(m.Counts, routeCounts(rng, i, false))
			out[i] = m
		}
		return out
	}
	det, err := core.Train(maps(240), maps(120), core.Config{
		PCA: pca.Options{Components: 4},
		GMM: gmm.Options{Components: 3, Restarts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// routeCorpus is the seeded trace: one burst per occupied cell per
// interval, with anomalous stretches long enough to raise and clear
// the debounced alarm.
func routeCorpus(rng *rand.Rand) []trace.Access {
	var events []trace.Access
	for iv := 0; iv < routeIntervals; iv++ {
		anomalous := (iv >= 50 && iv < 62) || (iv >= 110 && iv < 114)
		counts := routeCounts(rng, iv, anomalous)
		step := int64(routeMicros / (routeCells + 1))
		for i, c := range counts {
			if c == 0 {
				continue
			}
			events = append(events, trace.Access{
				Time:  int64(iv)*routeMicros + int64(i)*step,
				Addr:  routeDef.AddrBase + uint64(i)*routeDef.Gran,
				Count: c,
			})
		}
	}
	return events
}

// denseIntervals replays the corpus through a Memometer and collects
// every interval as a dense heat map.
func denseIntervals(t *testing.T, events []trace.Access) []*heatmap.HeatMap {
	t.Helper()
	dev := memometer.New()
	if err := dev.Configure(memometer.Config{Region: routeDef, IntervalMicros: routeMicros}); err != nil {
		t.Fatal(err)
	}
	var maps []*heatmap.HeatMap
	drain := func() {
		for dev.HasPending() {
			m, err := dev.Collect()
			if err != nil {
				t.Fatal(err)
			}
			maps = append(maps, m)
		}
	}
	for off := 0; off < len(events); {
		n, err := dev.SnoopBatch(events[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += n
		drain()
	}
	if err := dev.Tick(routeIntervals * routeMicros); err != nil {
		t.Fatal(err)
	}
	drain()
	if len(maps) != routeIntervals {
		t.Fatalf("replay produced %d intervals, want %d", len(maps), routeIntervals)
	}
	return maps
}

// routeChecker compares one route's per-interval results with the
// serial pipeline's records. Routes without alarm state of their own
// get a fresh alarm runtime fed their verdicts.
type routeChecker struct {
	t     *testing.T
	name  string
	want  []pipeline.IntervalRecord
	theta float64
	rt    *alarm.Runtime
	n     int
}

func newRouteChecker(t *testing.T, name string, want []pipeline.IntervalRecord, theta float64) *routeChecker {
	rt, err := alarm.NewRuntime(alarm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return &routeChecker{t: t, name: name, want: want, theta: theta, rt: rt}
}

// density checks a route that yields only the log density: the verdict
// is lp < θ_p and the alarm comes from the checker's own runtime.
func (c *routeChecker) density(lp float64) {
	anomalous := lp < c.theta
	c.record(lp, anomalous, c.rt.Observe(anomalous, c.want[c.n].End))
}

// verdict checks a route that yields a density and its own verdict.
func (c *routeChecker) verdict(lp float64, anomalous bool) {
	c.record(lp, anomalous, c.rt.Observe(anomalous, c.want[c.n].End))
}

// record checks a route that yields density, verdict and alarm event.
func (c *routeChecker) record(lp float64, anomalous bool, ev *alarm.Event) {
	c.t.Helper()
	i := c.n
	c.n++
	w := c.want[i]
	if math.Float64bits(lp) != math.Float64bits(w.LogDensity) {
		c.t.Fatalf("%s interval %d: density %v, pipeline %v", c.name, i, lp, w.LogDensity)
	}
	if anomalous != w.Anomalous {
		c.t.Fatalf("%s interval %d: verdict %v, pipeline %v", c.name, i, anomalous, w.Anomalous)
	}
	if (ev == nil) != (w.Event == nil) || (ev != nil && *ev != *w.Event) {
		c.t.Fatalf("%s interval %d: alarm %+v, pipeline %+v", c.name, i, ev, w.Event)
	}
}

func (c *routeChecker) done() {
	c.t.Helper()
	if c.n != len(c.want) {
		c.t.Fatalf("%s: %d intervals, pipeline %d", c.name, c.n, len(c.want))
	}
}

// TestRoutesMatchPipeline drives one seeded trace corpus through every
// remaining scoring route and checks each against the serial oracle,
// Pipeline.Process: bit-identical log densities, the same θ_p verdicts
// and the same alarm transitions. CI runs it under -race at GOMAXPROCS
// 1, 2 and 8.
func TestRoutesMatchPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	det := routeDetector(t, rng)
	theta, err := det.Threshold(routeQuantile)
	if err != nil {
		t.Fatal(err)
	}
	events := routeCorpus(rng)
	maps := denseIntervals(t, events)

	p, err := pipeline.New(det, pipeline.Config{Quantile: routeQuantile})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range maps {
		if err := p.Process(m); err != nil {
			t.Fatal(err)
		}
	}
	want := p.Records()
	raised, cleared := 0, 0
	for _, r := range want {
		if r.Event != nil && r.Event.Raised {
			raised++
		} else if r.Event != nil {
			cleared++
		}
	}
	if raised < 2 || cleared < 2 {
		t.Fatalf("corpus raised %d and cleared %d alarms; the comparison needs both", raised, cleared)
	}

	t.Run("LogDensity", func(t *testing.T) {
		c := newRouteChecker(t, "LogDensity", want, theta)
		for _, m := range maps {
			lp, err := det.LogDensity(m)
			if err != nil {
				t.Fatal(err)
			}
			c.density(lp)
		}
		c.done()
	})
	t.Run("LogDensityVector", func(t *testing.T) {
		c := newRouteChecker(t, "LogDensityVector", want, theta)
		for _, m := range maps {
			lp, err := det.LogDensityVector(m.Vector())
			if err != nil {
				t.Fatal(err)
			}
			c.density(lp)
		}
		c.done()
	})
	t.Run("Classify", func(t *testing.T) {
		c := newRouteChecker(t, "Classify", want, theta)
		for _, m := range maps {
			anomalous, lp, err := det.Classify(m, routeQuantile)
			if err != nil {
				t.Fatal(err)
			}
			c.verdict(lp, anomalous)
		}
		c.done()
	})
	t.Run("LogDensityBatch", func(t *testing.T) {
		vecs, err := heatmap.PackVectors(maps)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, len(vecs))
		if err := det.LogDensityBatch(dst, vecs); err != nil {
			t.Fatal(err)
		}
		c := newRouteChecker(t, "LogDensityBatch", want, theta)
		for _, lp := range dst {
			c.density(lp)
		}
		c.done()
	})
	t.Run("ClassifySeries", func(t *testing.T) {
		verdicts, err := det.ClassifySeries(maps)
		if err != nil {
			t.Fatal(err)
		}
		c := newRouteChecker(t, "ClassifySeries", want, theta)
		for _, v := range verdicts {
			c.verdict(v.LogDensity, v.Anomalous[routeQuantile])
		}
		c.done()
	})
	t.Run("Instrumented", func(t *testing.T) {
		inst := *det
		reg := obs.NewRegistry()
		inst.Instrument(reg)
		c := newRouteChecker(t, "Instrumented", want, theta)
		for _, m := range maps {
			lp, err := inst.LogDensity(m)
			if err != nil {
				t.Fatal(err)
			}
			c.density(lp)
		}
		c.done()
		if n := reg.Snapshot().Histograms["core.score_micros"].Count; n != routeIntervals {
			t.Fatalf("instrumented route timed %d intervals, want %d", n, routeIntervals)
		}
	})
	t.Run("TraceScorer", func(t *testing.T) {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		for _, a := range events {
			if err := w.Write(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		ts, err := det.NewTraceScorer(routeMicros, 64)
		if err != nil {
			t.Fatal(err)
		}
		c := newRouteChecker(t, "TraceScorer", want, theta)
		emit := func(is core.IntervalScore) error {
			if w := want[c.n]; is.Start != w.Start || is.End != w.End {
				t.Fatalf("TraceScorer interval %d: bounds [%d,%d], pipeline [%d,%d]",
					c.n, is.Start, is.End, w.Start, w.End)
			}
			c.density(is.LogDensity)
			return nil
		}
		if err := ts.Run(trace.NewReader(&buf), emit); err != nil {
			t.Fatal(err)
		}
		if err := ts.FlushAt(routeIntervals*routeMicros, emit); err != nil {
			t.Fatal(err)
		}
		c.done()
	})
	t.Run("FleetController", func(t *testing.T) {
		// One stream and a queue several times the corpus: the admission
		// policy never has a reason to shed.
		ctl, err := fleet.New(det, 1, fleet.Config{
			Shards: 1, QueueDepth: 4 * routeIntervals, MaxPerStream: routeIntervals,
			Quantile: routeQuantile,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range maps {
			admitted, err := ctl.Submit(0, m)
			if err != nil {
				t.Fatal(err)
			}
			if !admitted {
				t.Fatalf("fleet shed interval %d", i)
			}
		}
		ctl.Close()
		recs, err := ctl.Records(0)
		if err != nil {
			t.Fatal(err)
		}
		c := newRouteChecker(t, "FleetController", want, theta)
		for _, r := range recs {
			c.record(r.LogDensity, r.Anomalous, r.Event)
		}
		c.done()
	})
}
