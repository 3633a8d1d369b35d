package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReader hardens the trace deserializer: arbitrary bytes must never
// panic, and whatever parses must re-serialize identically.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Write(Access{Time: 1, Addr: 0xC0008000, Count: 3})
	_ = w.Write(Access{Time: 2, Addr: 0xC0009000, Count: 7})
	_ = w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte{})
	f.Add([]byte{0x54, 0x4d, 0x48, 0x4d}) // magic bytes reversed

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var events []Access
		for {
			a, err := r.Read()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrBadTrace) {
					t.Fatalf("reject without ErrBadTrace: %v", err)
				}
				return // malformed input rejected; fine
			}
			events = append(events, a)
			if len(events) > 1<<16 {
				t.Fatal("unbounded parse") // 20-byte records cap this
			}
		}
		// Round trip.
		var out bytes.Buffer
		w := NewWriter(&out)
		for _, e := range events {
			if err := w.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := readAll(NewReader(&out))
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if len(got) != len(events) {
			t.Fatalf("round trip changed count: %d vs %d", len(got), len(events))
		}
		for i := range events {
			if got[i] != events[i] {
				t.Fatalf("event %d changed", i)
			}
		}
	})
}

// FuzzTraceReader pins the Reader's error contract: over an in-memory
// stream (no transient I/O failures) every Read outcome is a valid
// event, io.EOF at a clean record boundary, or an error wrapping
// ErrBadTrace. Nothing else may escape and nothing may panic —
// truncated headers (1–3 bytes) and torn records included.
func FuzzTraceReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := int64(0); i < 3; i++ {
		_ = w.Write(Access{Time: i * 10, Addr: 0xC0008000 + uint64(i)*4096, Count: uint32(i + 1)})
	}
	_ = w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	// Truncations at every prefix length through the header and the
	// first record, plus a torn tail on the full stream.
	for n := 0; n <= 24 && n < len(valid); n++ {
		f.Add(valid[:n])
	}
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:len(valid)-7]) // torn tail mid-record for the batch path
	f.Add([]byte("MHMT"))       // wrong byte order for the magic

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var events []Access
		var terminal error
		for i := 0; ; i++ {
			a, err := r.Read()
			if err == nil {
				if i > len(data)/20+1 {
					t.Fatalf("parsed more records than the input can hold")
				}
				events = append(events, a)
				continue
			}
			if errors.Is(err, io.EOF) || errors.Is(err, ErrBadTrace) {
				terminal = err
				break
			}
			t.Fatalf("Read returned error outside the contract: %v", err)
		}
		// Cross-check: the batched path must decode the identical event
		// sequence and end in the same terminal class as record-at-a-time
		// reads, for every batch size.
		for _, batch := range []int{1, 3, 64} {
			br := NewReader(bytes.NewReader(data))
			dst := make([]Access, batch)
			var got []Access
			var bTerminal error
			for {
				n, err := br.ReadBatch(dst)
				got = append(got, dst[:n]...)
				if err == nil {
					continue
				}
				if errors.Is(err, io.EOF) || errors.Is(err, ErrBadTrace) {
					bTerminal = err
					break
				}
				t.Fatalf("ReadBatch returned error outside the contract: %v", err)
			}
			if len(got) != len(events) {
				t.Fatalf("batch=%d decoded %d events, Read decoded %d", batch, len(got), len(events))
			}
			for i := range events {
				if got[i] != events[i] {
					t.Fatalf("batch=%d event %d = %+v, Read saw %+v", batch, i, got[i], events[i])
				}
			}
			if errors.Is(terminal, ErrBadTrace) != errors.Is(bTerminal, ErrBadTrace) {
				t.Fatalf("batch=%d terminal %v, Read terminal %v", batch, bTerminal, terminal)
			}
		}
	})
}
