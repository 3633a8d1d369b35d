// Package syscalls implements the second detection channel of the
// ensemble: a syscall-frequency-distribution detector in the spirit of
// Yoon et al.'s execution-context follow-up (arXiv 1501.05963). A
// Recorder listens to the RTOS scheduler and counts kernel service
// invocations per monitoring interval; a Detector models the clean
// per-service frequency distribution and scores new intervals by a
// Gaussian log-density over variance-stabilized counts — the same
// "lower score = more anomalous" convention as the MHM detector, so
// both channels calibrate and fuse identically.
//
// Frequencies are counted against a fixed vocabulary (the image's
// service catalog at construction time); executions of services outside
// it — e.g. a rootkit hook's module-space handler — fall into a
// trailing "other" bucket, which in the clean system stays at zero.
package syscalls

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/memheatmap/mhm/internal/mat"
	"github.com/memheatmap/mhm/internal/rtos"
	"github.com/memheatmap/mhm/internal/stats"
)

// Errors of the syscall channel.
var (
	// ErrConfig wraps invalid recorder or training configuration.
	ErrConfig = errors.New("syscalls: invalid configuration")
	// ErrVocabMismatch is returned when a sample's dimensionality differs
	// from the detector's vocabulary.
	ErrVocabMismatch = errors.New("syscalls: sample vocabulary differs from trained vocabulary")
)

// OtherBucket is the name of the out-of-vocabulary bucket.
const OtherBucket = "other"

// Sample is one interval's (or window's) per-service invocation counts.
// Counts are fractional because a partially executed syscall segment
// contributes its executed share.
type Sample struct {
	// Start and End bound the covered span in simulation microseconds.
	Start, End int64
	// Counts has one entry per vocabulary name (the recorder's Names).
	Counts []float64
}

// Recorder implements rtos.ExecListener: it accumulates per-interval
// kernel service invocation counts aligned with the Memometer's
// monitoring intervals (both clocks start at 0). It observes only — a
// session's heat maps are bit-identical with or without a Recorder
// attached.
type Recorder struct {
	rtos.NopListener

	interval int64
	names    []string
	index    map[string]int

	cur      []float64
	curStart int64
	started  bool
	samples  []Sample
}

// NewRecorder builds a recorder over the given service vocabulary
// (names are deduplicated and sorted; an "other" bucket is appended).
func NewRecorder(vocab []string, intervalMicros int64) (*Recorder, error) {
	if intervalMicros <= 0 {
		return nil, fmt.Errorf("syscalls: interval %d: %w", intervalMicros, ErrConfig)
	}
	if len(vocab) == 0 {
		return nil, fmt.Errorf("syscalls: empty vocabulary: %w", ErrConfig)
	}
	seen := map[string]bool{}
	names := make([]string, 0, len(vocab)+1)
	for _, n := range vocab {
		if n == "" || n == OtherBucket || seen[n] {
			continue
		}
		seen[n] = true
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("syscalls: vocabulary holds no usable names: %w", ErrConfig)
	}
	sort.Strings(names)
	names = append(names, OtherBucket)
	index := make(map[string]int, len(names))
	for i, n := range names {
		index[n] = i
	}
	return &Recorder{
		interval: intervalMicros,
		names:    names,
		index:    index,
		cur:      make([]float64, len(names)),
	}, nil
}

// Names returns the vocabulary, "other" last.
func (r *Recorder) Names() []string { return append([]string(nil), r.names...) }

// roll closes completed intervals up to (not including) the one holding t.
func (r *Recorder) roll(t int64) {
	if !r.started {
		r.curStart = 0
		r.started = true
	}
	for t >= r.curStart+r.interval {
		r.flush(r.curStart + r.interval)
	}
}

// flush closes the current interval at end and starts the next.
func (r *Recorder) flush(end int64) {
	counts := make([]float64, len(r.cur))
	copy(counts, r.cur)
	r.samples = append(r.samples, Sample{Start: r.curStart, End: end, Counts: counts})
	for i := range r.cur {
		r.cur[i] = 0
	}
	r.curStart = end
}

// add accumulates n invocations of service name at time t.
func (r *Recorder) add(t int64, name string, n float64) {
	if n <= 0 {
		return
	}
	r.roll(t)
	idx, ok := r.index[name]
	if !ok {
		idx = r.index[OtherBucket]
	}
	r.cur[idx] += n
}

// OnSlice implements rtos.ExecListener: a syscall segment's invocations
// accrue in proportion to the executed fraction, attributed to the
// interval holding the slice end.
func (r *Recorder) OnSlice(task *rtos.Task, seg rtos.Segment, start, end int64, frac0, frac1 float64) {
	if seg.Kind != rtos.Syscall || frac1 <= frac0 || seg.Invocations <= 0 {
		return
	}
	r.add(end, seg.Service, float64(seg.Invocations)*(frac1-frac0))
}

// OnTick implements rtos.ExecListener: the timer interrupt is kernel
// execution too and is part of the frequency signature.
func (r *Recorder) OnTick(t int64) { r.add(t, "sched_tick", 1) }

// OnContextSwitch implements rtos.ExecListener.
func (r *Recorder) OnContextSwitch(t int64, from, to string) { r.add(t, "context_switch", 1) }

// Finish closes the trailing interval at the horizon and returns all
// samples. Call once after the simulation run.
func (r *Recorder) Finish(horizon int64) []Sample {
	r.roll(horizon)
	if horizon > r.curStart {
		r.flush(horizon)
	}
	return r.samples
}

// Smooth returns sliding-window averages of the samples: output i
// averages samples [i-window+1, i] (truncated at the front). Window 1
// returns per-interval samples unchanged. Averaging over the task set's
// hyperperiod removes schedule-phase variance, which is what makes slow
// mimicry and drift visible against tight clean distributions.
func Smooth(samples []Sample, window int) ([]Sample, error) {
	if window <= 0 {
		return nil, fmt.Errorf("syscalls: window %d: %w", window, ErrConfig)
	}
	if window == 1 || len(samples) == 0 {
		return samples, nil
	}
	k := len(samples[0].Counts)
	out := make([]Sample, len(samples))
	acc := make([]float64, k)
	for i, s := range samples {
		if len(s.Counts) != k {
			return nil, fmt.Errorf("syscalls: sample %d has %d counts, want %d: %w", i, len(s.Counts), k, ErrVocabMismatch)
		}
		for j, c := range s.Counts {
			acc[j] += c
		}
		if i >= window {
			for j, c := range samples[i-window].Counts {
				acc[j] -= c
			}
		}
		n := i + 1
		if n > window {
			n = window
		}
		counts := make([]float64, k)
		for j := range acc {
			counts[j] = acc[j] / float64(n)
		}
		start := samples[i+1-n].Start
		out[i] = Sample{Start: start, End: s.End, Counts: counts}
	}
	return out, nil
}

// stdFloor keeps zero-variance services (typically the "other" bucket,
// at zero in every clean interval) from producing infinite z-scores
// while still making any activity on them stand out sharply.
const stdFloor = 0.25

// Threshold is one calibrated decision boundary, mirroring
// core.Threshold: a sample whose score falls below Theta is anomalous
// at expected false-positive rate P.
type Threshold struct {
	P     float64 `json:"p"`
	Theta float64 `json:"theta"`
}

// Detector models the clean per-service frequency distribution: a
// diagonal Gaussian over sqrt-transformed counts (the square root
// stabilizes Poisson-like count variance).
type Detector struct {
	// Names is the vocabulary the detector was trained on, "other" last.
	Names []string `json:"names"`
	// Mean and Std are per-service statistics of sqrt counts.
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
	// Thresholds are sorted by P ascending.
	Thresholds []Threshold `json:"thresholds"`
}

// Train fits the clean frequency model on training samples and
// calibrates θ_p thresholds on a held-out clean set, mirroring the MHM
// detector's two-phase procedure.
func Train(names []string, train, calib []Sample, quantiles []float64) (*Detector, error) {
	if len(train) < 2 {
		return nil, fmt.Errorf("syscalls: %d training samples: %w", len(train), ErrConfig)
	}
	if len(calib) == 0 {
		return nil, fmt.Errorf("syscalls: empty calibration set: %w", ErrConfig)
	}
	k := len(names)
	if k == 0 {
		return nil, fmt.Errorf("syscalls: empty vocabulary: %w", ErrConfig)
	}
	d := &Detector{
		Names: append([]string(nil), names...),
		Mean:  make([]float64, k),
		Std:   make([]float64, k),
	}
	welford := make([]stats.Welford, k)
	for i, s := range train {
		if len(s.Counts) != k {
			return nil, fmt.Errorf("syscalls: training sample %d has %d counts, want %d: %w", i, len(s.Counts), k, ErrVocabMismatch)
		}
		for j, c := range s.Counts {
			welford[j].Add(math.Sqrt(c))
		}
	}
	for j := range welford {
		d.Mean[j] = welford[j].Mean()
		sd := welford[j].StdDev()
		if sd < stdFloor {
			sd = stdFloor
		}
		d.Std[j] = sd
	}
	scores := make([]float64, len(calib))
	for i, s := range calib {
		sc, err := d.Score(s)
		if err != nil {
			return nil, fmt.Errorf("syscalls: calibration sample %d: %w", i, err)
		}
		scores[i] = sc
	}
	for _, p := range quantiles {
		if p <= 0 || p >= 1 {
			return nil, fmt.Errorf("syscalls: quantile %g out of (0,1): %w", p, ErrConfig)
		}
		theta, err := stats.Quantile(scores, p)
		if err != nil {
			return nil, err
		}
		d.Thresholds = append(d.Thresholds, Threshold{P: p, Theta: theta})
	}
	sort.Slice(d.Thresholds, func(i, j int) bool { return d.Thresholds[i].P < d.Thresholds[j].P })
	return d, nil
}

// Score returns the sample's log-density-like score −½·Σ z²/K: lower is
// more anomalous, matching the MHM detector's orientation.
func (d *Detector) Score(s Sample) (float64, error) {
	if len(s.Counts) != len(d.Mean) {
		return 0, fmt.Errorf("syscalls: sample has %d counts, want %d: %w", len(s.Counts), len(d.Mean), ErrVocabMismatch)
	}
	sum := 0.0
	for j, c := range s.Counts {
		z := (math.Sqrt(c) - d.Mean[j]) / d.Std[j]
		sum += z * z
	}
	return -0.5 * sum / float64(len(d.Mean)), nil
}

// ScoreSeries scores every sample.
func (d *Detector) ScoreSeries(samples []Sample) ([]float64, error) {
	out := make([]float64, len(samples))
	for i, s := range samples {
		sc, err := d.Score(s)
		if err != nil {
			return nil, fmt.Errorf("syscalls: sample %d: %w", i, err)
		}
		out[i] = sc
	}
	return out, nil
}

// quantileTol matches threshold quantile labels: p values arrive
// through flag parsing and JSON round-trips, so exact float equality
// would miss a calibrated 0.995.
const quantileTol = 1e-9

// Threshold returns θ_p for a calibrated quantile, matched within
// quantileTol.
func (d *Detector) Threshold(p float64) (float64, error) {
	for _, th := range d.Thresholds {
		if mat.EqTol(th.P, p, quantileTol) {
			return th.Theta, nil
		}
	}
	return 0, fmt.Errorf("syscalls: p=%g not calibrated: %w", p, ErrConfig)
}
