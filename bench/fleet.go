package main

import (
	"runtime"
	"slices"
	"time"

	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/fleet"
	"github.com/memheatmap/mhm/internal/gmm"
	"github.com/memheatmap/mhm/internal/heatmap"
	"github.com/memheatmap/mhm/internal/pca"
)

// fleetDense offers the intervals of many streams to one fleet shard
// from an open-loop generator, in 1 ms ticks. The offered rate is set
// above what one shard sustains, so goodput (admitted and scored
// intervals per second) measures the shard and shedding absorbs the
// rest. A fresh controller serves each segment, which bounds the
// records it keeps.
func fleetDense(p *platform, o opts) (*result, error) {
	sc := p.sc
	w, err := fleet.NewWorkload(p.seed, p.mcfg.Region)
	if err != nil {
		return nil, err
	}
	pool := make([]*heatmap.HeatMap, sc.fleetPool)
	for k := range pool {
		m, err := w.HeatMap(k%sc.fleetStreams, k, false)
		if err != nil {
			return nil, err
		}
		// Start carries the map's id, so each record names its input.
		m.Start, m.End = int64(k), int64(k)+1
		pool[k] = m
	}
	cfg := fleet.Config{Shards: 1}
	det, st, err := timedSetup(
		func() (*core.Detector, error) { return w.TrainDetector(sc.fleetTrain, sc.fleetCalib) },
		func(d *core.Detector) error {
			c, err := fleet.New(d, sc.fleetStreams, cfg)
			if err != nil {
				return err
			}
			c.Close()
			return nil
		})
	if err != nil {
		return nil, err
	}
	want := make([]float64, len(pool))
	for k, m := range pool {
		if want[k], err = det.LogDensity(m); err != nil {
			return nil, err
		}
	}

	ticks := int(sc.fleetSegment / time.Millisecond)
	perTick := sc.fleetRate / 1000
	var (
		next     int     // submissions so far: picks the stream and the map
		lags     []int32 // per tick, how late the generator started it (traced)
		submitNs []int32 // per Submit call (traced)
		drainMs  []float64
		admitted []float64 // per segment (traced)
		shed     []float64
		// working sums the generator's time from each tick's wake-up to
		// its last submission: its time per interval, spinning excluded.
		working time.Duration
	)
	segment := func(cur *phase) error {
		c, err := fleet.New(det, sc.fleetStreams, cfg)
		if err != nil {
			return err
		}
		tr := cur.tr
		first, adm, dropped := next, 0, 0
		start := time.Now()
		for tick := 0; tick < ticks; tick++ {
			due := start.Add(time.Duration(tick) * time.Millisecond)
			// Spin rather than sleep: a sleeping goroutine wakes about
			// half a tick late, which would skew every latency.
			for time.Now().Before(due) {
				runtime.Gosched()
			}
			woke := time.Now()
			if tr != nil {
				lags = append(lags, int32(woke.Sub(due)))
			}
			for target := first + int(float64(tick+1)*perTick); next < target; next++ {
				tr.setInterval(next)
				tr.begin(lSubmit)
				ok, err := c.Submit(next%sc.fleetStreams, pool[next%len(pool)])
				d := tr.end()
				cur.latency(time.Since(due))
				switch {
				case err != nil:
					cur.failf("submission %d: %v", next, err)
				case ok:
					adm++
				default:
					dropped++
				}
				if tr != nil {
					submitNs = append(submitNs, int32(d))
				}
			}
			if tr != nil {
				working += time.Since(woke)
			}
		}
		closing := time.Now()
		c.Close()
		wall := time.Since(start)
		cur.addPass(adm, wall)
		cur.attempted += int64(dropped)
		if tr != nil {
			drainMs = append(drainMs, float64(time.Since(closing))/1e6)
			admitted = append(admitted, float64(adm))
			shed = append(shed, float64(dropped))
		}

		scored := 0
		for s := 0; s < sc.fleetStreams; s++ {
			recs, err := c.Records(s)
			if err != nil {
				return err
			}
			for i, rec := range recs {
				id := int(rec.Start)
				if rec.Index != i || id < 0 || id >= len(want) || !sameBits(rec.LogDensity, want[id]) {
					cur.failf("stream %d record %d (map %d): does not match Detector.LogDensity", s, i, id)
				}
			}
			scored += len(recs)
		}
		if scored != adm {
			cur.failf("segment scored %d intervals, admitted %d", scored, adm)
		}
		return nil
	}
	res := newResult()
	untraced, err := runPhase(o.untracedFor(), nil, true, segment)
	if err != nil {
		return nil, err
	}
	if err := res.endToEnd(untraced, st); err != nil {
		return nil, err
	}
	if !o.trace {
		return res, nil
	}

	span := o.tracedFor()
	lags = make([]int32, 0, int(span/time.Millisecond)+2*ticks)
	submitNs = make([]int32, 0, int(sc.fleetRate*span.Seconds())+2*ticks*int(perTick+1))
	tr := newTracer()
	traced, err := runPhase(span, tr, true, segment)
	if err != nil {
		return nil, err
	}
	slices.Sort(submitNs)
	slices.Sort(lags)
	p50, _ := percentile(submitNs, 50)
	p99, _ := percentile(submitNs, 99)
	lag99, _ := percentile(lags, 99)
	res.set("fleet.submit_ns_p50", float64(p50))
	res.set("fleet.submit_ns_p99", float64(p99))
	res.set("fleet.generator_lag_us_p99", float64(lag99)/1e3)
	res.set("fleet.drain_ms", median(drainMs))
	res.set("fleet.admitted", median(admitted))
	res.set("fleet.shed", median(shed))
	res.set("fleet.shed_frac", median(shed)/(median(admitted)+median(shed)))
	if err := res.traceSummary(tr, traced, untraced, working); err != nil {
		return nil, err
	}

	stages := func(det *core.Detector) (float64, float64, error) {
		// The inputs TrainDetector builds, regenerated to time its stages.
		var trainSet []*heatmap.HeatMap
		for i := 0; i < sc.fleetTrain; i++ {
			m, err := w.HeatMap(i%64, i, false)
			if err != nil {
				return 0, 0, err
			}
			trainSet = append(trainSet, m)
		}
		vecs, err := heatmap.PackVectors(trainSet)
		if err != nil {
			return 0, 0, err
		}
		return stageTimes(vecs, det, pca.Options{Components: 6}, gmm.Options{Components: 3, Restarts: 2})
	}
	return res, finishTrace(res, o, tr, stages, det)
}
