package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

// readAll drains the stream into a slice.
func readAll(tr *Reader) ([]Access, error) {
	var out []Access
	for {
		a, err := tr.Read()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, a)
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	events := make([]Access, 500)
	for i := range events {
		events[i] = Access{
			Time:  rng.Int63n(1 << 40),
			Addr:  0xC0008000 + uint64(rng.Intn(1<<21)),
			Count: uint32(rng.Intn(1000)),
		}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 500 {
		t.Errorf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty trace yielded %d events", len(got))
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	_, err := readAll(NewReader(bytes.NewReader([]byte{1, 2, 3, 4, 5})))
	if !errors.Is(err, ErrBadTrace) {
		t.Errorf("garbage: err = %v, want ErrBadTrace", err)
	}
	_, err = readAll(NewReader(bytes.NewReader(nil)))
	if !errors.Is(err, ErrBadTrace) {
		t.Errorf("empty stream: err = %v, want ErrBadTrace", err)
	}
}

func TestReaderRejectsTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Access{Time: 1, Addr: 2, Count: 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	r := NewReader(bytes.NewReader(b[:len(b)-5]))
	if _, err := r.Read(); !errors.Is(err, ErrBadTrace) {
		t.Errorf("truncated: err = %v, want ErrBadTrace", err)
	}
}

func TestReaderEOFAfterLast(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Access{Time: 7}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Errorf("want io.EOF, got %v", err)
	}
}

func TestRoundTripQuickProperty(t *testing.T) {
	// Property: any event sequence survives serialization untouched.
	f := func(times []int64, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		events := make([]Access, len(times))
		for i, tm := range times {
			events[i] = Access{Time: tm, Addr: rng.Uint64(), Count: rng.Uint32()}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, e := range events {
			if w.Write(e) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		got, err := readAll(NewReader(&buf))
		if err != nil || len(got) != len(events) {
			return false
		}
		for i := range events {
			if got[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReadBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	events := make([]Access, 500)
	for i := range events {
		events[i] = Access{
			Time:  rng.Int63n(1 << 40),
			Addr:  0xC0008000 + uint64(rng.Intn(1<<21)),
			Count: uint32(rng.Intn(1000)),
		}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, batch := range []int{1, 7, 64, 500, 1000} {
		r := NewReader(bytes.NewReader(raw))
		dst := make([]Access, batch)
		var got []Access
		for {
			n, err := r.ReadBatch(dst)
			got = append(got, dst[:n]...)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("batch=%d: %v", batch, err)
			}
			if n == 0 {
				t.Fatalf("batch=%d: zero progress without EOF", batch)
			}
		}
		if len(got) != len(events) {
			t.Fatalf("batch=%d: read %d events, want %d", batch, len(got), len(events))
		}
		for i := range events {
			if got[i] != events[i] {
				t.Fatalf("batch=%d: event %d = %+v, want %+v", batch, i, got[i], events[i])
			}
		}
		if n, err := r.ReadBatch(dst); n != 0 || !errors.Is(err, io.EOF) {
			t.Fatalf("batch=%d: after drain: n=%d err=%v, want 0, io.EOF", batch, n, err)
		}
	}
}

func TestReadBatchTruncatedTail(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := int64(0); i < 3; i++ {
		if err := w.Write(Access{Time: i, Addr: uint64(i), Count: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	r := NewReader(bytes.NewReader(raw[:len(raw)-5])) // torn third record
	dst := make([]Access, 8)
	n, err := r.ReadBatch(dst)
	if n != 2 {
		t.Fatalf("decoded %d events before the torn record, want 2", n)
	}
	if !errors.Is(err, ErrBadTrace) {
		t.Fatalf("err = %v, want ErrBadTrace", err)
	}
}

func TestReadBatchEmptyDst(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Access{Time: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if n, err := r.ReadBatch(nil); n != 0 || err != nil {
		t.Fatalf("empty dst: n=%d err=%v, want 0, nil", n, err)
	}
	// The stream is untouched; the event is still there.
	if n, err := r.ReadBatch(make([]Access, 4)); n != 1 || err != nil {
		t.Fatalf("after empty dst: n=%d err=%v, want 1, nil", n, err)
	}
}
