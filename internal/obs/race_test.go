package obs

import (
	"math"
	"sync"
	"testing"
)

// TestConcurrentObserveAndSnapshot hammers every metric kind from many
// goroutines while other goroutines snapshot and export concurrently —
// the race-detector guard for the lock-free hot path (run under
// `go test -race`).
func TestConcurrentObserveAndSnapshot(t *testing.T) {
	r := NewRegistry()
	const (
		writers  = 8
		readers  = 4
		perIter  = 2000
		perWrite = 3
	)
	var writerWG, readerWG sync.WaitGroup
	done := make(chan struct{})

	for g := 0; g < readers; g++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				s := r.Snapshot()
				// Internal consistency of whatever we saw: bucket sums
				// never exceed the count read afterwards.
				for name, hs := range s.Histograms {
					var inBuckets uint64
					for _, b := range hs.Buckets {
						inBuckets += b.Count
					}
					inBuckets += hs.Overflow
					if inBuckets > r.Histogram(name, nil).count.Load() {
						t.Errorf("%s: buckets %d > later count", name, inBuckets)
						return
					}
				}
			}
		}()
	}

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			// Mix of cached and by-name lookups so registration races
			// with concurrent reads.
			c := r.Counter("shared.count")
			h := r.Histogram("shared.lat", LatencyBuckets)
			for i := 0; i < perIter; i++ {
				c.Add(perWrite)
				h.Observe(float64(i % 1000))
				r.Gauge("shared.gauge").Set(float64(i))
				r.Counter("own.count").Inc()
				h.Start().Stop()
			}
		}()
	}

	writerWG.Wait()
	close(done)
	readerWG.Wait()

	want := uint64(writers * perIter * perWrite)
	if got := r.Counter("shared.count").Value(); got != want {
		t.Errorf("shared.count = %d, want %d", got, want)
	}
	if got := r.Counter("own.count").Value(); got != uint64(writers*perIter) {
		t.Errorf("own.count = %d", got)
	}
	// Histogram totals: one Observe plus one Stopwatch per iteration.
	if got := r.Histogram("shared.lat", nil).count.Load(); got != uint64(2*writers*perIter) {
		t.Errorf("shared.lat count = %d, want %d", got, 2*writers*perIter)
	}
}

// TestSnapshotNeverBehindCount pins the read/write ordering contract a
// single snapshot promises under concurrent Observe calls: its Count is
// never behind its own bucket sums, and a nonzero Count comes with
// finite Min and Max.
func TestSnapshotNeverBehindCount(t *testing.T) {
	h := newHistogram(LatencyBuckets)
	const writers, perWriter = 4, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(float64((i*7 + w) % 3000))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		hs := h.Snapshot()
		inBuckets := hs.Overflow
		for _, b := range hs.Buckets {
			inBuckets += b.Count
		}
		if inBuckets > hs.Count {
			t.Fatalf("bucket sums %d ahead of count %d", inBuckets, hs.Count)
		}
		if hs.Count > 0 && (math.IsInf(hs.Min, 0) || math.IsInf(hs.Max, 0)) {
			t.Fatalf("count %d with extremes min=%v max=%v", hs.Count, hs.Min, hs.Max)
		}
		if q := hs.Quantile(0.5); math.IsInf(q, 0) || math.IsNaN(q) {
			t.Fatalf("p50 = %v", q)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}
