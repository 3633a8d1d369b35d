package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// fastShare picks, among repeated measurements of the same work, the
// value the fastest tenth reach. Co-tenants of a small shared runner
// slow its vCPUs to about half speed for seconds at a time; a median
// moves with them, the fastest tenth only when the program does.
const fastShare = 0.1

// window is how many consecutive open-loop submissions one latency
// window holds: the fewest that leave ten beyond its p99.
const window = 1000

// phase accumulates one measured phase of a workload: an untimed
// warm-up pass, then passes until the phase's duration has elapsed.
// Every pass serves the same inputs in the same order, so the k-th
// verdict of each pass is the same interval: a position.
type phase struct {
	tr       *tracer // nil in untraced phases and during warm-up
	openLoop bool    // verdicts are timed from when they were due

	// lat holds one latency per verdict, in ns, pass after pass. In a
	// closed loop it is the time since the previous verdict; in an open
	// loop, the time since the interval was due.
	lat       []int32
	passRates []float64 // intervals served per second, per pass
	intervals int64
	busy      time.Duration // summed time inside passes
	allocs    uint64        // bytes allocated during the measured passes

	attempted int64 // intervals offered, warm-up pass included
	failed    int64
	failures  []string
}

// addPass records one finished pass that served n intervals in d.
func (ph *phase) addPass(n int, d time.Duration) {
	ph.attempted += int64(n)
	ph.intervals += int64(n)
	ph.busy += d
	ph.passRates = append(ph.passRates, float64(n)/d.Seconds())
}

// latency records one verdict latency.
func (ph *phase) latency(d time.Duration) {
	ph.lat = append(ph.lat, int32(min(d, time.Duration(1<<31-1))))
}

// failf counts one failed interval and keeps the first few reasons.
func (ph *phase) failf(format string, args ...any) {
	ph.failed++
	if len(ph.failures) < 5 {
		ph.failures = append(ph.failures, fmt.Sprintf(format, args...))
	}
}

// runPhase runs pass once untraced as a warm-up, then with tr until d
// has elapsed (at least once). Failures of the warm-up pass count.
func runPhase(d time.Duration, tr *tracer, openLoop bool, pass func(*phase) error) (*phase, error) {
	ph := &phase{openLoop: openLoop}
	t0 := time.Now()
	if err := pass(ph); err != nil {
		return nil, err
	}
	// Size the latency buffer from the warm-up rate so that growing it
	// does not count as the measured passes' allocations.
	est := float64(len(ph.lat)) / time.Since(t0).Seconds() * d.Seconds()
	ph.lat = make([]int32, 0, int(est*1.25)+len(ph.lat))
	ph.passRates, ph.intervals, ph.busy = nil, 0, 0
	ph.tr = tr

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	start := time.Now()
	for {
		if err := pass(ph); err != nil {
			return nil, err
		}
		if time.Since(start) >= d {
			break
		}
	}
	runtime.ReadMemStats(&ms)
	ph.allocs = ms.TotalAlloc - before
	return ph, nil
}

// timings are a phase's end-to-end timing metrics.
type timings struct {
	rate     float64 // intervals per second
	p50, p99 float64 // interval latency, us
	note     string
}

// timings reduces a phase's verdict latencies to its end-to-end timing
// metrics, rejecting co-tenant noise by keeping what the fastest tenth
// of repeated measurements reach.
//
// In a closed loop the k-th verdict of every pass is the same interval,
// so each interval's latency is its fastest tenth over the passes; the
// metrics are the median and p99 of those over the input's intervals,
// and the throughput their mean's inverse. In the open loop a
// submission's latency depends on the admissions before it in its tick,
// and a stall (a collection, a co-tenant) delays every submission of
// the ticks it covers, landing in nearly every pass. There the
// latencies are cut into windows of window consecutive submissions and
// the metrics are the fastest tenth of the windows' medians and p99s,
// and of the passes' goodput.
func (ph *phase) timings() (timings, error) {
	passes := len(ph.passRates)
	if passes == 0 || len(ph.lat)%passes != 0 {
		return timings{}, fmt.Errorf("%d verdicts do not split into %d equal passes", len(ph.lat), passes)
	}
	n := len(ph.lat) / passes
	k := int(fastShare * float64(passes))
	if ph.openLoop {
		var p50s, p99s []float64
		for lo := 0; lo+window <= len(ph.lat); lo += window {
			s := slices.Clone(ph.lat[lo : lo+window])
			slices.Sort(s)
			p50, _ := percentile(s, 50)
			p99, _ := percentile(s, 99)
			p50s = append(p50s, float64(p50)/1e3)
			p99s = append(p99s, float64(p99)/1e3)
		}
		if len(p50s) == 0 {
			return timings{}, fmt.Errorf("%d submissions are less than one window", len(ph.lat))
		}
		w := int(fastShare * float64(len(p50s)))
		t := timings{rate: sortedCopy(ph.passRates)[passes-1-k], p50: sortedCopy(p50s)[w], p99: sortedCopy(p99s)[w]}
		t.note = fmt.Sprintf("fastest tenth of %d windows of %d submissions and of %d passes", len(p50s), window, passes)
		return t, nil
	}
	pos := make([]int32, n)
	col := make([]int32, passes)
	var sum int64
	for p := range pos {
		for i := range col {
			col[i] = ph.lat[i*n+p]
		}
		slices.Sort(col)
		pos[p] = col[k]
		sum += int64(col[k])
	}
	slices.Sort(pos)
	p50, _ := percentile(pos, 50)
	p99, tail := percentile(pos, 99)
	t := timings{rate: float64(n) / (float64(sum) / 1e9), p50: float64(p50) / 1e3, p99: float64(p99) / 1e3}
	t.note = fmt.Sprintf("%d intervals, each the fastest tenth of %d passes; %d beyond p99", n, passes, tail)
	return t, nil
}

// result is one workload run's outcome: its metrics by name and the
// interval counts the JSON line reports.
type result struct {
	attempted, failed int64
	failures          []string
	values            map[string]float64
	notes             []string // human-readable detail printed above the metrics
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// absorb counts a phase's intervals and failures into the result.
func (r *result) absorb(ph *phase) {
	r.attempted += ph.attempted
	r.failed += ph.failed
	r.failures = append(r.failures, ph.failures...)
}

// endToEnd sets the end-to-end metrics from an untraced phase and the
// set-up timings.
func (r *result) endToEnd(ph *phase, st setupTimes) error {
	r.absorb(ph)
	t, err := ph.timings()
	if err != nil {
		return err
	}
	r.set("setup_s", median(st.total))
	r.set("intervals_per_s", t.rate)
	r.set("interval_us_p50", t.p50)
	r.set("interval_us_p99", t.p99)
	r.set("runtime.alloc_bytes_per_iv", float64(ph.allocs)/float64(ph.intervals))
	r.set("core.train_s", median(st.train))
	q1, q2, q3 := quartiles(ph.passRates)
	r.notef("set-up rounds (s): %.4f", st.total)
	r.notef("%d latency samples; timings over %s", len(ph.lat), t.note)
	r.notef("intervals per second of each pass: quartiles %.6g %.6g %.6g", q1, q2, q3)
	return nil
}

// layerTime sets a per-layer time metric: the layer's self time per
// interval of the traced phase.
func (r *result) layerTime(name string, tr *tracer, l layer, traced *phase) {
	r.set(name, float64(tr.totals[l].self)/float64(traced.intervals))
}

// traceSummary sets the metrics every traced phase reports: how much of
// the traced working time no layer span covers, and how much slower
// tracing made the workload than the untraced phase.
func (r *result) traceSummary(tr *tracer, traced, untraced *phase, working time.Duration) error {
	r.absorb(traced)
	tt, err := traced.timings()
	if err != nil {
		return err
	}
	ut, err := untraced.timings()
	if err != nil {
		return err
	}
	r.set("unattributed_frac", 1-float64(tr.selfNs())/float64(working))
	r.set("trace_overhead_frac", 1-tt.rate/ut.rate)
	r.notef("traced: %d intervals in %d passes, %d spans kept of %d",
		traced.intervals, len(traced.passRates), len(tr.spans), tr.spanCount())
	return nil
}
