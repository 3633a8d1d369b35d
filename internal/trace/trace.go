// Package trace defines the memory-access event stream flowing from the
// simulated monitored core to the Memometer, plus buffering and
// serialization so traces can be captured once and replayed through many
// detector configurations.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Access is one snooped address-bus event. The hardware model supports
// bursts: Count unit fetches starting at Addr, all attributed to Addr's
// cell (bursts in this simulator never straddle cell boundaries; the
// kernel model splits them beforehand).
type Access struct {
	// Time is the simulation time of the event in microseconds.
	Time int64
	// Addr is the (virtual) address being fetched.
	Addr uint64
	// Count is the number of fetches in the burst; zero-count events are
	// ignored by consumers.
	Count uint32
}

// binaryMagic guards the trace file framing.
const binaryMagic = uint32(0x4d484d54) // "MHMT"

// ErrBadTrace is returned when a serialized trace is malformed.
var ErrBadTrace = errors.New("trace: malformed trace stream")

// Writer serializes Access events to a compact binary stream.
type Writer struct {
	w     *bufio.Writer
	count uint64
	begun bool
}

// NewWriter wraps w for trace output.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write appends one event.
func (tw *Writer) Write(a Access) error {
	if !tw.begun {
		if err := binary.Write(tw.w, binary.LittleEndian, binaryMagic); err != nil {
			return fmt.Errorf("trace: write header: %w", err)
		}
		tw.begun = true
	}
	var rec [recordSize]byte
	binary.LittleEndian.PutUint64(rec[0:8], uint64(a.Time))
	binary.LittleEndian.PutUint64(rec[8:16], a.Addr)
	binary.LittleEndian.PutUint32(rec[16:20], a.Count)
	if _, err := tw.w.Write(rec[:]); err != nil {
		return fmt.Errorf("trace: write record: %w", err)
	}
	tw.count++
	return nil
}

// Count returns the number of events written.
func (tw *Writer) Count() uint64 { return tw.count }

// Flush flushes buffered output; call once after the last Write.
func (tw *Writer) Flush() error {
	if !tw.begun {
		// An empty trace still carries the header so readers can
		// distinguish "empty" from "not a trace".
		if err := binary.Write(tw.w, binary.LittleEndian, binaryMagic); err != nil {
			return fmt.Errorf("trace: write header: %w", err)
		}
		tw.begun = true
	}
	return tw.w.Flush()
}

// recordSize is the on-wire size of one serialized Access.
const recordSize = 20

// Reader deserializes a stream produced by Writer.
type Reader struct {
	r     *bufio.Reader
	begun bool
	batch []byte // ReadBatch decode buffer, grown once to the batch size
}

// NewReader wraps r for trace input.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// header consumes and validates the stream magic on first use.
func (tr *Reader) header() error {
	if tr.begun {
		return nil
	}
	var magic uint32
	if err := binary.Read(tr.r, binary.LittleEndian, &magic); err != nil {
		if errors.Is(err, io.EOF) {
			return fmt.Errorf("trace: missing header: %w", ErrBadTrace)
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("trace: truncated header: %w", ErrBadTrace)
		}
		return err
	}
	if magic != binaryMagic {
		return fmt.Errorf("trace: bad magic %#x: %w", magic, ErrBadTrace)
	}
	tr.begun = true
	return nil
}

// Read returns the next event, or io.EOF at end of stream.
func (tr *Reader) Read() (Access, error) {
	if err := tr.header(); err != nil {
		return Access{}, err
	}
	var rec [recordSize]byte
	if _, err := io.ReadFull(tr.r, rec[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Access{}, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Access{}, fmt.Errorf("trace: truncated record: %w", ErrBadTrace)
		}
		return Access{}, err
	}
	return Access{
		Time:  int64(binary.LittleEndian.Uint64(rec[0:8])),
		Addr:  binary.LittleEndian.Uint64(rec[8:16]),
		Count: binary.LittleEndian.Uint32(rec[16:20]),
	}, nil
}

// ReadBatch fills dst with the next events, pulling one buffered block
// from the stream and decoding every complete record in it — one
// io.ReadFull per batch instead of one per record. It returns the number
// of events decoded into dst. A full batch returns (len(dst), nil); a
// clean end of stream returns (0, io.EOF); a short final block whose
// length is a whole number of records returns those events with a nil
// error, and the following call reports io.EOF. A torn trailing record
// returns the events decoded before it together with an error wrapping
// ErrBadTrace. The decoded events are identical to len(dst) sequential
// Read calls.
func (tr *Reader) ReadBatch(dst []Access) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if err := tr.header(); err != nil {
		return 0, err
	}
	need := len(dst) * recordSize
	if cap(tr.batch) < need {
		tr.batch = make([]byte, need)
	}
	buf := tr.batch[:need]
	nb, err := io.ReadFull(tr.r, buf)
	k := nb / recordSize
	for i := 0; i < k; i++ {
		rec := buf[i*recordSize : (i+1)*recordSize]
		dst[i] = Access{
			Time:  int64(binary.LittleEndian.Uint64(rec[0:8])),
			Addr:  binary.LittleEndian.Uint64(rec[8:16]),
			Count: binary.LittleEndian.Uint32(rec[16:20]),
		}
	}
	switch {
	case err == nil:
		return k, nil
	case errors.Is(err, io.EOF):
		return 0, io.EOF
	case errors.Is(err, io.ErrUnexpectedEOF):
		if nb%recordSize != 0 {
			return k, fmt.Errorf("trace: truncated record: %w", ErrBadTrace)
		}
		return k, nil
	default:
		return k, err
	}
}
