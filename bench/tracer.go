package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
)

// layer names one span kind: a call into one module of the serving path.
type layer uint8

const (
	lDecode      layer = iota // trace.Reader.ReadBatch
	lSnoop                    // memometer.Device.SnoopBatch and Tick
	lCollect                  // memometer.Device.Collect or CollectSparse
	lVector                   // heatmap.HeatMap.VectorInto
	lScoreSparse              // score.Scorer.ScoreSparse
	lScoreDense               // score.Scorer.Score
	lAlarm                    // alarm.Runtime.Observe
	lProcess                  // one pipeline.Pipeline.Process, re-composed
	lModelFor                 // fleet.Registry.ModelFor
	lSubmit                   // fleet.Controller.Submit
	lObserve                  // refresh.Loop.Observe that ran no refresh
	lRefresh                  // refresh.Loop.Observe that ran a refresh
	numLayers
)

var layerNames = [numLayers]string{
	"trace.decode", "memometer.snoop", "memometer.collect", "heatmap.vector",
	"score.sparse", "score.dense", "alarm.observe", "pipeline.process",
	"fleet.model_for", "fleet.submit", "refresh.observe", "refresh.refresh",
}

// maxSpans is how many spans a run keeps in full; later spans only add
// to their layer's count and times.
const maxSpans = 1 << 20

// span is one recorded layer call. Times are nanoseconds since the
// tracer was built; parent indexes the enclosing span in the buffer
// (-1 for a top-level span) and iv is the interval being worked on.
type span struct {
	start, end int64
	parent, iv int32
	layer      layer
}

// frame is one open span.
type frame struct {
	idx          int32 // buffer slot, -1 when the buffer was full
	layer        layer
	start, child int64 // child sums the durations of closed children
}

// layerTotals aggregates every span of one layer, kept or not. Self
// time is span time minus the time its child spans cover.
type layerTotals struct {
	count, total, self int64
}

// tracer records nested spans into a preallocated buffer. A nil tracer
// records nothing, so untraced and traced runs can share code.
type tracer struct {
	epoch  time.Time
	spans  []span
	stack  []frame
	totals [numLayers]layerTotals
	iv     int32
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		spans: make([]span, 0, maxSpans),
		stack: make([]frame, 0, 8),
	}
}

// begin opens a span of layer l inside the innermost open span.
func (t *tracer) begin(l layer) {
	if t == nil {
		return
	}
	idx := int32(-1)
	if len(t.spans) < cap(t.spans) {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{parent: parent, iv: t.iv, layer: l})
	}
	t.stack = append(t.stack, frame{idx: idx, layer: l, start: int64(time.Since(t.epoch))})
}

// end closes the innermost span and returns its duration in ns.
func (t *tracer) end() int64 {
	if t == nil {
		return 0
	}
	return t.endAs(t.stack[len(t.stack)-1].layer)
}

// endAs closes the innermost span as layer l, for calls whose layer is
// known only once they return (a refresh.Loop.Observe that refreshed).
func (t *tracer) endAs(l layer) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	a := &t.totals[l]
	a.count++
	a.total += d
	a.self += d - f.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
	if f.idx >= 0 {
		s := &t.spans[f.idx]
		s.start, s.end, s.layer = f.start, now, l
	}
	return d
}

// spanCount returns how many spans were recorded, kept or not.
func (t *tracer) spanCount() int64 {
	var n int64
	for _, a := range t.totals {
		n += a.count
	}
	return n
}

// setInterval tags the spans that follow with interval i.
func (t *tracer) setInterval(i int) {
	if t != nil {
		t.iv = int32(i)
	}
}

// selfNs returns the summed self time of all spans.
func (t *tracer) selfNs() int64 {
	var sum int64
	for _, a := range t.totals {
		sum += a.self
	}
	return sum
}

// writeFile writes the kept spans and the per-layer totals as JSON:
// {"layers": [...], "spans": [[layer, parent, interval, start_ns,
// end_ns], ...], "totals": {layer: {"count", "total_ns", "self_ns"}}}.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.write(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func (t *tracer) write(w io.Writer) error {
	b := make([]byte, 0, 1<<17)
	b = append(b, `{"layers":[`...)
	for i, n := range layerNames {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, n)
	}
	b = append(b, `],"spans":[`...)
	for i, s := range t.spans {
		if i > 0 {
			b = append(b, ",\n"...)
		}
		b = append(b, '[')
		for j, v := range [...]int64{int64(s.layer), int64(s.parent), int64(s.iv), s.start, s.end} {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, ']')
		if len(b) >= 1<<16 {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	b = append(b, "],\n\"totals\":{"...)
	for i, a := range t.totals {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%q:{\"count\":%d,\"total_ns\":%d,\"self_ns\":%d}", layerNames[i], a.count, a.total, a.self)
	}
	b = append(b, "}}\n"...)
	_, err := w.Write(b)
	return err
}
