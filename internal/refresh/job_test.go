package refresh

import (
	"errors"
	"math"
	"testing"

	"github.com/memheatmap/mhm/internal/core"
	"github.com/memheatmap/mhm/internal/fleet"
	"github.com/memheatmap/mhm/internal/gmm"
)

// stepJob runs a refresh job one step at a time, as the fleet loop does,
// and fails the test unless the job reports the number of steps it
// took.
func stepJob(t testing.TB, r *Refresher, full bool) (*Result, error) {
	t.Helper()
	j, err := r.start(full)
	if err != nil {
		return nil, err
	}
	for n := 1; ; n++ {
		done, err := j.step()
		if err != nil {
			return nil, err
		}
		if done {
			if j.res.Steps != n {
				t.Fatalf("job took %d steps, reports %d", n, j.res.Steps)
			}
			return &j.res, nil
		}
	}
}

// jobCounts is the step-derived part of a Result.
type jobCounts struct {
	steps, eigenIter, fallback, emIter int
	converged                          bool
}

func countsOf(res *Result) jobCounts {
	return jobCounts{res.Steps, res.EigenIterations, res.FallbackSteps, res.EMIterations, res.EigenConverged}
}

// feedShifted observes device intervals from start with their densities
// displaced far below the drift channel until the drift alarm rises.
func feedShifted(t testing.TB, r *Refresher, det *core.Detector, start int) {
	t.Helper()
	v := make([]float64, deviceRegion.Cells())
	for i := start; !r.drift; i++ {
		if i == start+200 {
			t.Fatal("no drift alarm after 200 displaced densities")
		}
		deviceVectorInto(v, i)
		d, err := det.LogDensityVector(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Observe(v, d-1e3); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJobMatchesOneShot steps a refresh job one step at a time on the
// four paths a refresh can take on device-shaped windows — warm, a full
// rebuild after a drift alarm, the full rebuild after a warm fit fails,
// and a warm fit whose restricted eigen-solve falls back to the full
// dimension — at one and two workers. Each stepped job must publish the
// bits recorded from the one-shot refresh before it was split into
// steps, equal the one-shot refresh of a twin refresher, and report the
// same counts.
func TestJobMatchesOneShot(t *testing.T) {
	det := deviceDetector(t)
	l := deviceRegion.Cells()
	cases := []struct {
		name     string
		setup    func(t *testing.T, r *Refresher) (full bool)
		want     string
		fallback bool
	}{
		{"warm", func(t *testing.T, r *Refresher) bool {
			feedDevice(t, r, det, 0, 256)
			return false
		}, "0x93fd2dfd1bcaba23 full=false", false},
		{"full after a drift alarm", func(t *testing.T, r *Refresher) bool {
			feedDevice(t, r, det, 0, 256)
			if _, err := r.refresh(false); err != nil { // fits the drift channel
				t.Fatal(err)
			}
			feedShifted(t, r, det, 256)
			return r.drift
		}, "0xfe6e737a6a1b19a8 full=true", false},
		{"full after a failed warm fit", func(t *testing.T, r *Refresher) bool {
			feedDevice(t, r, det, 0, 256)
			// A component that lost its weight fails the warm EM start.
			g := &gmm.Model{Components: append([]gmm.Component(nil), r.gmmM.Components...)}
			g.Components[0].Weight = 0
			r.gmmM = g
			return false
		}, "0x8e12507880eec5f4 full=true", false},
		{"dense fallback", func(t *testing.T, r *Refresher) bool {
			// Five distinct intervals, fewer than the 17-vector block:
			// the restricted run collapses and the full one takes over.
			v := make([]float64, l)
			for i := 0; i < 256; i++ {
				deviceVectorInto(v, i%5)
				observeAll(t, r, det, v)
			}
			return false
		}, "0x8e0657eac214a947 full=false", true},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2} {
			cfg := Config{Window: 192, Holdout: 64, Workers: workers}
			oneShot, stepped := newRefresher(t, det, cfg), newRefresher(t, det, cfg)
			wantRes, wantErr := oneShot.refresh(c.setup(t, oneShot))
			gotRes, gotErr := stepJob(t, stepped, c.setup(t, stepped))
			want, got := refreshOutcome(wantRes, wantErr), refreshOutcome(gotRes, gotErr)
			if want != c.want || got != c.want {
				t.Fatalf("%s workers=%d: stepped %s, one-shot %s, recorded %s", c.name, workers, got, want, c.want)
			}
			if countsOf(gotRes) != countsOf(wantRes) {
				t.Fatalf("%s workers=%d: stepped counts %+v, one-shot %+v", c.name, workers, countsOf(gotRes), countsOf(wantRes))
			}
			if (gotRes.FallbackSteps > 0) != c.fallback {
				t.Fatalf("%s workers=%d: %d fallback steps", c.name, workers, gotRes.FallbackSteps)
			}
		}
	}
}

// TestJobStepCounts pins how many steps the device-shaped warm and full
// jobs take, and the eigen-solve and EM work inside them: window 192,
// holdout 64, L = 1,472 over a 60-cell support, L' = 9, J = 3. The
// counts decide the swap boundary, so they must not move with the
// machine or the worker count.
func TestJobStepCounts(t *testing.T) {
	det := deviceDetector(t)
	want := []jobCounts{
		{steps: 12, eigenIter: 8, emIter: 4},                   // warm: 8 iterations, the cap
		{steps: 47, eigenIter: 35, emIter: 8, converged: true}, // full: converges
	}
	for _, workers := range []int{1, 2} {
		r := newRefresher(t, det, Config{Window: 192, Holdout: 64, Workers: workers})
		feedDevice(t, r, det, 0, 256)
		for k, full := range []bool{false, true} {
			res, err := stepJob(t, r, full)
			if err != nil {
				t.Fatal(err)
			}
			if got := countsOf(res); got != want[k] {
				t.Errorf("workers=%d full=%t: counts %+v, want %+v", workers, full, got, want[k])
			}
		}
	}
}

// loopFixture builds a refresh loop over a one-stream registry seeded
// from the device detector.
func loopFixture(t testing.TB, every, workers int) (*Loop, *fleet.Registry) {
	t.Helper()
	det := deviceDetector(t)
	base, err := fleet.NewModel(det, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := fleet.NewRegistry(1, base)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoop(det, reg, LoopConfig{Every: every, Refresher: Config{Window: 192, Holdout: 64, Workers: workers}})
	if err != nil {
		t.Fatal(err)
	}
	return l, reg
}

// warmState hashes the refresher's warm-start state: the last published
// models and thresholds.
func warmState(r *Refresher) uint64 {
	return detectorBits(&core.Detector{PCA: r.pcaM, GMM: r.gmmM, Thresholds: r.thresholds})
}

// oneShotChain replays the observations a Loop sees through a Refresher
// that refreshes in one shot at every trigger, as the loop did before
// refreshes ran in steps, and collects each refresh's bits.
type oneShotChain struct {
	r     *Refresher
	every int
	since int
	bits  []uint64
}

func (c *oneShotChain) observe(t testing.TB, v []float64, d float64) {
	t.Helper()
	if err := c.r.Observe(v, d); err != nil {
		return
	}
	if c.since++; c.since < c.every || !c.r.Ready() {
		return
	}
	c.since = 0
	c.refresh(t)
}

func (c *oneShotChain) refresh(t testing.TB) {
	t.Helper()
	res, err := c.r.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	c.bits = append(c.bits, detectorBits(res.Detector))
}

// TestLoopPublishesOneShotChain drives the loop with device intervals,
// a stretch of them with displaced densities so that a drift alarm
// sends one refresh down the full path, at one and two workers. Every
// model the loop publishes must equal a one-shot refresh of the windows
// at its job's start, and its swap must land exactly swapLead intervals
// past the highest index seen at the completing step. With a refresh
// due every 48 clean intervals each job ends before the next is due, so
// the jobs start at the triggers and the loop publishes the one-shot
// chain of the loop before refreshes ran in steps. With one due every 8
// each comes due while the previous job runs and starts when it ends.
func TestLoopPublishesOneShotChain(t *testing.T) {
	det := deviceDetector(t)
	for _, every := range []int{48, 8} {
		for _, workers := range []int{1, 2} {
			cfg := Config{Window: 192, Holdout: 64, Workers: workers}
			loop, reg := loopFixture(t, every, workers)
			var chain *oneShotChain
			if every == 48 {
				chain = &oneShotChain{r: newRefresher(t, det, cfg), every: every}
			}
			atStart := &oneShotChain{r: newRefresher(t, det, cfg)}
			v := make([]float64, deviceRegion.Cells())
			published := 0
			for i := 0; i < 560; i++ {
				deviceVectorInto(v, i)
				d, err := det.LogDensityVector(v)
				if err != nil {
					t.Fatal(err)
				}
				if i >= 360 && i < 400 {
					d -= 1e3
				}
				if chain != nil {
					chain.observe(t, v, d)
				}
				if err := atStart.r.Observe(v, d); err != nil {
					t.Fatal(err)
				}
				before, job := loop.Stats().SwapsScheduled, loop.job
				loop.Observe(0, i, false, d, v)
				if loop.job != nil && loop.job != job {
					// A job started: the loop's windows now hold every
					// interval so far, as the one-shot refresher's do.
					atStart.refresh(t)
				}
				if loop.Stats().SwapsScheduled == before {
					continue
				}
				got := warmState(loop.r)
				if got != atStart.bits[published] {
					t.Fatalf("every=%d workers=%d: refresh %d published %#016x, one-shot at its start %#016x", every, workers, published, got, atStart.bits[published])
				}
				if chain != nil && got != chain.bits[published] {
					t.Fatalf("every=%d workers=%d: refresh %d published %#016x, one-shot at its trigger %#016x", every, workers, published, got, chain.bits[published])
				}
				if old, next := reg.ModelFor(0, i+swapLead-1), reg.ModelFor(0, i+swapLead); old == next {
					t.Fatalf("every=%d workers=%d: refresh %d completed at %d but no swap at %d", every, workers, published, i, i+swapLead)
				}
				published++
			}
			if err := loop.Err(); err != nil {
				t.Fatal(err)
			}
			s := loop.Stats()
			if published < 10 || len(atStart.bits)-published > 1 || s.FullRebuilds == 0 {
				t.Fatalf("every=%d workers=%d: %d published of %d started, %d full rebuilds", every, workers, published, len(atStart.bits), s.FullRebuilds)
			}
		}
	}
}

// TestLoopDefersIntervalsMidJob checks what happens to the intervals
// that arrive while a job runs. Each is counted as observed when it
// arrives; an anomalous one is skipped at once; a clean one waits, so a
// NaN vector among them is rejected with ErrNonFinite only when the
// completing step replays it, and changes no state: the loop goes on to
// publish what a loop that never saw it publishes. With a refresh due
// every 4 clean intervals the next one comes due while the job runs: it
// waits for the job, starts on the completing step once the replay has
// emptied the queue, and the queue never holds more than one job's
// intervals.
func TestLoopDefersIntervalsMidJob(t *testing.T) {
	det := deviceDetector(t)
	loop, _ := loopFixture(t, 4, 2)
	ref, _ := loopFixture(t, 4, 2)
	v := make([]float64, deviceRegion.Cells())
	observe := func(i int) {
		t.Helper()
		deviceVectorInto(v, i)
		d, err := det.LogDensityVector(v)
		if err != nil {
			t.Fatal(err)
		}
		loop.Observe(0, i, false, d, v)
		ref.Observe(0, i, false, d, v)
	}
	i := 0
	for ; loop.job == nil; i++ {
		observe(i)
	}
	calls := loop.Stats().Observed
	nan := make([]float64, len(v))
	deviceVectorInto(nan, i)
	nan[deviceSupport[7]] = math.NaN()
	loop.Observe(0, i, false, -1, nan)
	ref.Observe(0, i, true, -1, nan) // keeps the two loops' steps aligned
	loop.Observe(0, i+1, true, -1, nan)
	ref.Observe(0, i+1, true, -1, nan)
	if s := loop.Stats(); s.Observed != calls+2 || s.Skipped != 1 || loop.pending != 1 || loop.Err() != nil {
		t.Fatalf("after a NaN and an anomalous interval mid-job: observed %d (want %d), skipped %d, %d deferred, err %v",
			s.Observed, calls+2, s.Skipped, loop.pending, loop.Err())
	}
	i += 2
	for refreshes := loop.Stats().Refreshes; loop.Stats().Refreshes == refreshes; i++ {
		if loop.job == nil {
			t.Fatal("job ended without publishing")
		}
		observe(i)
	}
	if !errors.Is(loop.Err(), ErrNonFinite) {
		t.Fatalf("replayed NaN interval: err %v, want ErrNonFinite", loop.Err())
	}
	if loop.job == nil || loop.pending != 0 {
		t.Fatalf("a refresh due mid-job: job started %t, %d intervals waiting", loop.job != nil, loop.pending)
	}
	for end := i + 200; i < end; i++ {
		observe(i)
		if loop.Stats().Refreshes != ref.Stats().Refreshes || warmState(loop.r) != warmState(ref.r) {
			t.Fatalf("interval %d: the NaN interval changed the refresh chain", i)
		}
		if loop.pending > 47 {
			t.Fatalf("interval %d: %d intervals waiting, more than one job's steps", i, loop.pending)
		}
	}
	if s := loop.Stats(); s.Observed != int64(i) || s.Refreshes < 10 {
		t.Fatalf("observed %d of %d calls, %d refreshes", s.Observed, i, s.Refreshes)
	}
}

// TestLoopDeferAllocationFree pins the loop's deferral at 0 allocs/op in
// steady state: copying an interval that arrives mid-job into the queue
// and replaying the queue reuse the buffers the queue has grown.
func TestLoopDeferAllocationFree(t *testing.T) {
	det := deviceDetector(t)
	loop, _ := loopFixture(t, 1<<30, 2)
	vs := make([][]float64, 16)
	ds := make([]float64, len(vs))
	for i := range vs {
		vs[i] = make([]float64, deviceRegion.Cells())
		deviceVectorInto(vs[i], i)
		d, err := det.LogDensityVector(vs[i])
		if err != nil {
			t.Fatal(err)
		}
		ds[i] = d
	}
	cycle := func() {
		for i, v := range vs {
			loop.deferObs(v, ds[i])
		}
		loop.replay()
	}
	cycle()
	if allocs := testing.AllocsPerRun(32, cycle); allocs != 0 {
		t.Fatalf("deferring and replaying 16 intervals allocated %.1f times, want 0", allocs)
	}
	if loop.pending != 0 || loop.Err() != nil {
		t.Fatalf("%d intervals left waiting, err %v", loop.pending, loop.Err())
	}
}
