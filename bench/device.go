package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"slices"
	"time"

	"github.com/memheatmap/mhm/internal/alarm"
	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/fleet"
	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/memometer"
	"github.com/memheatmap/mhm/internal/pca"
	"github.com/memheatmap/mhm/internal/pipeline"
	"github.com/memheatmap/mhm/internal/refresh"
	"github.com/memheatmap/mhm/internal/score"
	"github.com/memheatmap/mhm/internal/securecore"
	"github.com/memheatmap/mhm/internal/stats"
	"github.com/memheatmap/mhm/internal/trace"
)

// replay pumps one captured trace through dev the way the secure core
// consumes it: decode a block, snoop until an interval closes, hand
// every completed interval to collect, and close the last interval at
// end. It returns the number of trace records decoded. Spans go to tr
// when it is non-nil.
func replay(tr *tracer, dev *memometer.Device, capture []byte, end int64, buf []trace.Access, collect func() error) (int, error) {
	r := trace.NewReader(bytes.NewReader(capture))
	drain := func() error {
		for dev.HasPending() {
			if err := collect(); err != nil {
				return err
			}
		}
		return nil
	}
	records := 0
	for {
		tr.begin(lDecode)
		n, rerr := r.ReadBatch(buf)
		tr.end()
		records += n
		for off := 0; off < n; {
			tr.begin(lSnoop)
			k, err := dev.SnoopBatch(buf[off:n])
			tr.end()
			off += k
			if err != nil {
				return records, err
			}
			if err := drain(); err != nil {
				return records, err
			}
		}
		if errors.Is(rerr, io.EOF) {
			break
		}
		if rerr != nil {
			return records, rerr
		}
	}
	tr.begin(lSnoop)
	err := dev.Tick(end)
	tr.end()
	if err != nil {
		return records, err
	}
	return records, drain()
}

// deviceSetup collects the training set and returns the set-up trainer
// of the paper-scale detector, and a function that times its two
// training stages on the same inputs.
func deviceSetup(p *platform) (func() (*core.Detector, error), func(*core.Detector) (float64, float64, error), error) {
	trainSet, calib, err := p.trainingSet()
	if err != nil {
		return nil, nil, err
	}
	cfg := p.coreConfig()
	trainFn := func() (*core.Detector, error) { return core.Train(trainSet, calib, cfg) }
	stages := func(det *core.Detector) (float64, float64, error) {
		vecs, err := heatmap.PackVectors(trainSet)
		if err != nil {
			return 0, 0, err
		}
		return stageTimes(vecs, det,
			pca.Options{Components: cfg.PCA.Components, Workers: trainWorkers},
			gmm.Options{Components: cfg.GMM.Components, Restarts: cfg.GMM.Restarts, Workers: trainWorkers})
	}
	return trainFn, stages, nil
}

// replayClean replays a 30 s clean capture in a closed loop through the
// fused core.TraceScorer — the everyday single-device path.
func replayClean(p *platform, o opts) (*result, error) {
	trainFn, stages, err := deviceSetup(p)
	if err != nil {
		return nil, err
	}
	capture, err := p.capture(nil, 20, p.sc.cleanMicros)
	if err != nil {
		return nil, err
	}
	var ts *core.TraceScorer
	det, st, err := timedSetup(trainFn, func(d *core.Detector) (err error) {
		ts, err = d.NewTraceScorer(intervalMicros, ingestBatch)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Oracle: the serial pipeline over the same capture, replayed by
	// securecore.Replay.
	maps, err := securecore.Replay(trace.NewReader(bytes.NewReader(capture)), p.mcfg, p.sc.cleanMicros)
	if err != nil {
		return nil, err
	}
	oracle, err := pipeline.New(det, pipeline.Config{Quantile: quantile})
	if err != nil {
		return nil, err
	}
	for _, m := range maps {
		if err := oracle.Process(m); err != nil {
			return nil, err
		}
	}
	want := make([]float64, len(maps))
	for i, rec := range oracle.Records() {
		want[i] = rec.LogDensity
	}

	end := p.sc.cleanMicros
	var (
		ph   *phase
		i    int
		last time.Time
	)
	emit := func(s core.IntervalScore) error {
		now := time.Now()
		ph.latency(now.Sub(last))
		last = now
		if i >= len(want) || !sameBits(s.LogDensity, want[i]) {
			ph.failf("interval %d: fused density differs from pipeline.Pipeline", i)
		}
		i++
		return nil
	}
	fused := func(cur *phase) error {
		ph, i = cur, 0
		if err := ts.Device().Configure(p.mcfg); err != nil {
			return err
		}
		r := trace.NewReader(bytes.NewReader(capture))
		start := time.Now()
		last = start
		if err := ts.Run(r, emit); err != nil {
			return err
		}
		if err := ts.FlushAt(end, emit); err != nil {
			return err
		}
		cur.addPass(i, time.Since(start))
		checkPass(cur, i, len(want), ts.Device())
		return nil
	}
	res := newResult()
	untraced, err := runPhase(o.untracedFor(), nil, false, fused)
	if err != nil {
		return nil, err
	}
	if err := res.endToEnd(untraced, st); err != nil {
		return nil, err
	}
	if !o.trace {
		return res, nil
	}

	// Traced: the fused path re-composed from its public calls.
	eng, err := det.ScoreEngine()
	if err != nil {
		return nil, err
	}
	dev, sc := memometer.New(), eng.NewScorer()
	buf := make([]trace.Access, ingestBatch)
	var (
		sp                heatmap.Sparse
		records, cells    int64
		overruns, capByte int64
	)
	tr := newTracer()
	traced, err := runPhase(o.tracedFor(), tr, false, func(cur *phase) error {
		n := 0
		if err := dev.Configure(p.mcfg); err != nil {
			return err
		}
		start := time.Now()
		last := start
		recs, err := replay(cur.tr, dev, capture, end, buf, func() error {
			cur.tr.setInterval(n)
			cur.tr.begin(lCollect)
			err := dev.CollectSparse(&sp)
			cur.tr.end()
			if err != nil {
				return err
			}
			cur.tr.begin(lScoreSparse)
			lp, err := sc.ScoreSparse(sp.RunStart, sp.RunLen, sp.Counts)
			cur.tr.end()
			if err != nil {
				return err
			}
			now := time.Now()
			cur.latency(now.Sub(last))
			last = now
			if n >= len(want) || !sameBits(lp, want[n]) {
				cur.failf("interval %d: traced density differs from pipeline.Pipeline", n)
			}
			if cur.tr != nil {
				cells += int64(sp.NNZ())
			}
			n++
			cur.tr.setInterval(n)
			return nil
		})
		if err != nil {
			return err
		}
		cur.addPass(n, time.Since(start))
		checkPass(cur, n, len(want), dev)
		if cur.tr != nil {
			records += int64(recs)
			capByte += int64(len(capture))
			overruns += int64(dev.Stats().Overruns)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	iv := float64(traced.intervals)
	res.layerTime("trace.decode_ns_per_iv", tr, lDecode, traced)
	res.layerTime("memometer.snoop_ns_per_iv", tr, lSnoop, traced)
	res.layerTime("memometer.collect_ns_per_iv", tr, lCollect, traced)
	res.layerTime("score.sparse_ns_per_iv", tr, lScoreSparse, traced)
	res.set("trace.records_per_iv", float64(records)/iv)
	res.set("trace.bytes_per_iv", float64(capByte)/iv)
	res.set("memometer.cells_per_iv", float64(cells)/iv)
	res.set("memometer.overruns", float64(overruns))
	if err := res.traceSummary(tr, traced, untraced, traced.busy); err != nil {
		return nil, err
	}
	return res, finishTrace(res, o, tr, stages, det)
}

// checkPass fails a pass that scored the wrong number of intervals or
// whose device dropped one.
func checkPass(ph *phase, got, want int, dev *memometer.Device) {
	if got != want {
		ph.failf("pass scored %d intervals, want %d", got, want)
	}
	if ov := dev.Stats().Overruns; ov != 0 {
		ph.failf("device overran %d intervals", ov)
	}
}

// finishTrace adds the training stages' times (pca.train_s, gmm.train_s)
// to a traced result and writes the span buffer when asked to.
func finishTrace(r *result, o opts, tr *tracer, stages func(*core.Detector) (float64, float64, error), det *core.Detector) error {
	pcaS, gmmS, err := stages(det)
	if err != nil {
		return err
	}
	r.set("pca.train_s", pcaS)
	r.set("gmm.train_s", gmmS)
	if o.traceOut == "" {
		return nil
	}
	return tr.writeFile(o.traceOut)
}

// attackCapture is one attack-pipeline input with its oracle.
type attackCapture struct {
	name    string
	trace   []byte
	density []float64     // Detector.ClassifySeries over the replayed maps
	events  []alarm.Event // alarm.Runtime fed the series' θ1 verdicts
}

// attackPipeline loops three attack captures through dense collect and
// the serial pipeline.Pipeline, checking every density and alarm.
func attackPipeline(p *platform, o opts) (*result, error) {
	trainFn, stages, err := deviceSetup(p)
	if err != nil {
		return nil, err
	}
	eventAt := p.sc.attackMicros / 2
	eventIv := int(eventAt / intervalMicros)
	caps := []*attackCapture{{name: "app-addition"}, {name: "shellcode"}, {name: "rootkit-lkm"}}
	for k, c := range caps {
		sc, err := scenario(c.name, eventAt)
		if err != nil {
			return nil, err
		}
		if c.trace, err = p.capture(sc, int64(30+k), p.sc.attackMicros); err != nil {
			return nil, err
		}
	}
	det, st, err := timedSetup(trainFn, func(d *core.Detector) error {
		_, err := pipeline.New(d, pipeline.Config{Quantile: quantile})
		return err
	})
	if err != nil {
		return nil, err
	}

	res := newResult()
	var auc, latency, falseRaises float64
	var occupied, intervals int
	for _, c := range caps {
		maps, err := securecore.Replay(trace.NewReader(bytes.NewReader(c.trace)), p.mcfg, p.sc.attackMicros)
		if err != nil {
			return nil, err
		}
		for _, m := range maps {
			occupied += countNonZero(m.Counts)
		}
		intervals += len(maps)
		verdicts, err := det.ClassifySeries(maps)
		if err != nil {
			return nil, err
		}
		rt, err := alarm.NewRuntime(alarm.Config{})
		if err != nil {
			return nil, err
		}
		var pre, post []float64
		for i, v := range verdicts {
			c.density = append(c.density, v.LogDensity)
			rt.Observe(v.Anomalous[quantile], v.End)
			if i < eventIv {
				pre = append(pre, -v.LogDensity)
			} else {
				post = append(post, -v.LogDensity)
			}
		}
		c.events = rt.Events()
		a, err := stats.AUC(pre, post)
		if err != nil {
			return nil, err
		}
		rep := rt.Analyze(eventIv)
		lat := rep.DetectionLatencyIntervals
		if lat < 0 {
			lat = len(verdicts) - eventIv // never raised: the rest of the capture
		}
		auc += a / float64(len(caps))
		latency += float64(lat) / float64(len(caps))
		falseRaises += float64(rep.FalseRaises)
		res.notef("%s: AUC %.4f, detection latency %d intervals, %d false raises, %d alarm transitions",
			c.name, a, rep.DetectionLatencyIntervals, rep.FalseRaises, len(c.events))
	}
	res.set("score.detect_auc", auc)
	res.set("alarm.detect_latency_iv", latency)
	res.set("alarm.false_raises", falseRaises)
	res.set("memometer.cells_per_iv", float64(occupied)/float64(intervals))

	dev := memometer.New()
	buf := make([]trace.Access, ingestBatch)
	end := p.sc.attackMicros
	serve := func(cur *phase) error {
		n := 0
		var busy time.Duration
		for _, c := range caps {
			if err := dev.Configure(p.mcfg); err != nil {
				return err
			}
			pl, err := pipeline.New(det, pipeline.Config{Quantile: quantile})
			if err != nil {
				return err
			}
			start := time.Now()
			last := start
			_, err = replay(nil, dev, c.trace, end, buf, func() error {
				m, err := dev.Collect()
				if err != nil {
					return err
				}
				if err := pl.Process(m); err != nil {
					return err
				}
				now := time.Now()
				cur.latency(now.Sub(last))
				last = now
				return nil
			})
			if err != nil {
				return err
			}
			busy += time.Since(start)
			recs := pl.Records()
			got := make([]float64, len(recs))
			for i, rec := range recs {
				got[i] = rec.LogDensity
			}
			checkSeries(cur, c, got, pl.Alarms(), dev)
			n += len(recs)
		}
		cur.addPass(n, busy)
		return nil
	}
	untraced, err := runPhase(o.untracedFor(), nil, false, serve)
	if err != nil {
		return nil, err
	}
	if err := res.endToEnd(untraced, st); err != nil {
		return nil, err
	}
	if !o.trace {
		return res, nil
	}

	// Traced: pipeline.Process re-composed from the calls it makes —
	// HeatMap.VectorInto, the fused Scorer, the θ1 test and the alarm
	// debouncer — so each layer gets its own span. The record it keeps
	// is the process span's self time.
	eng, err := det.ScoreEngine()
	if err != nil {
		return nil, err
	}
	theta, err := det.Threshold(quantile)
	if err != nil {
		return nil, err
	}
	sc := eng.NewScorer()
	vbuf := make([]float64, p.mcfg.Region.Cells())
	var records, capBytes, overruns, events int64
	tr := newTracer()
	traced, err := runPhase(o.tracedFor(), tr, false, func(cur *phase) error {
		n := 0
		var busy time.Duration
		for _, c := range caps {
			if err := dev.Configure(p.mcfg); err != nil {
				return err
			}
			rt, err := alarm.NewRuntime(alarm.Config{})
			if err != nil {
				return err
			}
			recs := make([]pipeline.IntervalRecord, 0, len(c.density))
			start := time.Now()
			last := start
			nr, err := replay(cur.tr, dev, c.trace, end, buf, func() error {
				cur.tr.setInterval(n + len(recs))
				cur.tr.begin(lCollect)
				m, err := dev.Collect()
				cur.tr.end()
				if err != nil {
					return err
				}
				cur.tr.begin(lProcess)
				cur.tr.begin(lVector)
				m.VectorInto(vbuf)
				cur.tr.end()
				cur.tr.begin(lScoreDense)
				lp, err := sc.Score(vbuf)
				cur.tr.end()
				if err != nil {
					return err
				}
				anomalous := lp < theta
				cur.tr.begin(lAlarm)
				ev := rt.Observe(anomalous, m.End)
				cur.tr.end()
				recs = append(recs, pipeline.IntervalRecord{
					Index: len(recs), Start: m.Start, End: m.End,
					LogDensity: lp, Anomalous: anomalous, Event: ev,
				})
				cur.tr.end()
				now := time.Now()
				cur.latency(now.Sub(last))
				last = now
				cur.tr.setInterval(n + len(recs))
				return nil
			})
			if err != nil {
				return err
			}
			busy += time.Since(start)
			got := make([]float64, len(recs))
			for i, rec := range recs {
				got[i] = rec.LogDensity
			}
			checkSeries(cur, c, got, rt.Events(), dev)
			n += len(recs)
			if cur.tr != nil {
				records += int64(nr)
				capBytes += int64(len(c.trace))
				overruns += int64(dev.Stats().Overruns)
				events += int64(len(rt.Events()))
			}
		}
		cur.addPass(n, busy)
		return nil
	})
	if err != nil {
		return nil, err
	}
	iv := float64(traced.intervals)
	passes := float64(len(traced.passRates))
	res.layerTime("trace.decode_ns_per_iv", tr, lDecode, traced)
	res.layerTime("memometer.snoop_ns_per_iv", tr, lSnoop, traced)
	res.layerTime("memometer.collect_ns_per_iv", tr, lCollect, traced)
	res.layerTime("heatmap.vector_ns_per_iv", tr, lVector, traced)
	res.layerTime("score.dense_ns_per_iv", tr, lScoreDense, traced)
	res.layerTime("alarm.observe_ns_per_iv", tr, lAlarm, traced)
	res.set("pipeline.process_ns_per_iv", float64(tr.totals[lProcess].total)/iv)
	res.set("trace.records_per_iv", float64(records)/iv)
	res.set("trace.bytes_per_iv", float64(capBytes)/iv)
	res.set("memometer.overruns", float64(overruns))
	res.set("alarm.events", float64(events)/passes)
	if err := res.traceSummary(tr, traced, untraced, traced.busy); err != nil {
		return nil, err
	}
	return res, finishTrace(res, o, tr, stages, det)
}

// checkSeries compares one served attack capture with its oracle.
func checkSeries(ph *phase, c *attackCapture, got []float64, events []alarm.Event, dev *memometer.Device) {
	checkPass(ph, len(got), len(c.density), dev)
	for i := range min(len(got), len(c.density)) {
		if !sameBits(got[i], c.density[i]) {
			ph.failf("%s interval %d: density differs from Detector.ClassifySeries", c.name, i)
		}
	}
	if !slices.Equal(events, c.events) {
		ph.failf("%s: alarm sequence %v, want %v", c.name, events, c.events)
	}
}

func countNonZero(counts []uint32) int {
	n := 0
	for _, c := range counts {
		if c != 0 {
			n++
		}
	}
	return n
}

// refreshOutcome is what every refresh-mixed pass must reproduce.
type refreshOutcome struct {
	densityHash                uint64
	version                    int
	refreshes, rebuilds, swaps int
}

// refreshMixed replays a phase-shift capture (a benign schedule change a
// third of the way in) through dense collect, scores each interval on
// the registry's current model and feeds it to a refresh.Loop, which
// hot-swaps each refreshed model through the registry.
func refreshMixed(p *platform, o opts) (*result, error) {
	trainFn, stages, err := deviceSetup(p)
	if err != nil {
		return nil, err
	}
	shift, err := scenario("phase-shift", p.sc.refreshMicros/3)
	if err != nil {
		return nil, err
	}
	capture, err := p.capture(shift, 40, p.sc.refreshMicros)
	if err != nil {
		return nil, err
	}
	serving := func(d *core.Detector) (*fleet.Registry, *refresh.Loop, error) {
		base, err := fleet.NewModel(d, quantile, 1)
		if err != nil {
			return nil, nil, err
		}
		reg, err := fleet.NewRegistry(1, base)
		if err != nil {
			return nil, nil, err
		}
		loop, err := refresh.NewLoop(d, reg, refresh.LoopConfig{
			Every:     p.sc.refreshEvery,
			Quantile:  quantile,
			Refresher: refresh.Config{Workers: trainWorkers},
		})
		return reg, loop, err
	}
	det, st, err := timedSetup(trainFn, func(d *core.Detector) error {
		_, _, err := serving(d)
		return err
	})
	if err != nil {
		return nil, err
	}

	dev := memometer.New()
	buf := make([]trace.Access, ingestBatch)
	vbuf := make([]float64, p.mcfg.Region.Cells())
	maps, err := securecore.Replay(trace.NewReader(bytes.NewReader(capture)), p.mcfg, p.sc.refreshMicros)
	if err != nil {
		return nil, err
	}
	occupied := 0
	for _, m := range maps {
		occupied += countNonZero(m.Counts)
	}
	want, cellsPerIv := len(maps), float64(occupied)/float64(len(maps))
	var (
		ref               *refreshOutcome
		refreshNs         []int64
		records, capBytes int64
	)
	pass := func(cur *phase) error {
		reg, loop, err := serving(det)
		if err != nil {
			return err
		}
		if err := dev.Configure(p.mcfg); err != nil {
			return err
		}
		tr := cur.tr
		var sc *score.Scorer
		hash := uint64(14695981039346656037) // FNV-1a over the density bits
		n, refreshes := 0, 0
		start := time.Now()
		last := start
		nr, err := replay(tr, dev, capture, p.sc.refreshMicros, buf, func() error {
			tr.setInterval(n)
			tr.begin(lCollect)
			m, err := dev.Collect()
			tr.end()
			if err != nil {
				return err
			}
			mdl := reg.ModelFor(0, n)
			if sc == nil || sc.Engine() != mdl.Engine() {
				sc = mdl.Engine().NewScorer()
			}
			tr.begin(lVector)
			m.VectorInto(vbuf)
			tr.end()
			tr.begin(lScoreDense)
			lp, err := sc.Score(vbuf)
			tr.end()
			if err != nil {
				return err
			}
			// The capture's change is benign, so every interval goes in as
			// clean: one refresh per refreshEvery intervals on every seed.
			// Fed the live model's verdicts instead, the loop skipped a
			// seed-dependent share after the shift and ran 33 to 44
			// refreshes per 30 s pass.
			tr.begin(lObserve)
			loop.Observe(0, n, false, lp, vbuf)
			if tr != nil {
				if k := loop.Stats().Refreshes; k != refreshes {
					refreshes = k
					refreshNs = append(refreshNs, tr.endAs(lRefresh))
				} else {
					tr.end()
				}
			}
			now := time.Now()
			cur.latency(now.Sub(last))
			last = now
			b := math.Float64bits(lp)
			for k := 0; k < 64; k += 8 {
				hash = (hash ^ (b >> k & 0xff)) * 1099511628211
			}
			n++
			tr.setInterval(n)
			return nil
		})
		if err != nil {
			return err
		}
		cur.addPass(n, time.Since(start))
		checkPass(cur, n, want, dev)
		if err := loop.Err(); err != nil {
			cur.failf("refresh loop: %v", err)
		}
		s := loop.Stats()
		got := &refreshOutcome{hash, s.Version, s.Refreshes, s.FullRebuilds, s.SwapsScheduled}
		if ref == nil {
			ref = got
		} else if *got != *ref {
			cur.failf("pass outcome %+v differs from the first pass's %+v", *got, *ref)
		}
		if tr != nil {
			records += int64(nr)
			capBytes += int64(len(capture))
		}
		return nil
	}
	res := newResult()
	untraced, err := runPhase(o.untracedFor(), nil, false, pass)
	if err != nil {
		return nil, err
	}
	if err := res.endToEnd(untraced, st); err != nil {
		return nil, err
	}
	res.notef("per pass: %d refreshes, %d full rebuilds, %d swaps, final model version %d",
		ref.refreshes, ref.rebuilds, ref.swaps, ref.version)
	res.set("memometer.cells_per_iv", cellsPerIv)
	res.set("refresh.refreshes", float64(ref.refreshes))
	res.set("refresh.full_rebuilds", float64(ref.rebuilds))
	res.set("refresh.swaps", float64(ref.swaps))
	if !o.trace {
		return res, nil
	}

	tr := newTracer()
	traced, err := runPhase(o.tracedFor(), tr, false, pass)
	if err != nil {
		return nil, err
	}
	iv := float64(traced.intervals)
	res.layerTime("trace.decode_ns_per_iv", tr, lDecode, traced)
	res.layerTime("memometer.snoop_ns_per_iv", tr, lSnoop, traced)
	res.layerTime("memometer.collect_ns_per_iv", tr, lCollect, traced)
	res.layerTime("heatmap.vector_ns_per_iv", tr, lVector, traced)
	res.layerTime("score.dense_ns_per_iv", tr, lScoreDense, traced)
	res.layerTime("refresh.observe_ns_per_iv", tr, lObserve, traced)
	slices.Sort(refreshNs)
	p50, _ := percentile(refreshNs, 50)
	pmax, _ := percentile(refreshNs, 100)
	res.set("refresh.refresh_ms_p50", float64(p50)/1e6)
	res.set("refresh.refresh_ms_max", float64(pmax)/1e6)
	res.set("trace.records_per_iv", float64(records)/iv)
	res.set("trace.bytes_per_iv", float64(capBytes)/iv)
	if err := res.traceSummary(tr, traced, untraced, traced.busy); err != nil {
		return nil, err
	}
	return res, finishTrace(res, o, tr, stages, det)
}
