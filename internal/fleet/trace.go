// The decision trace: an append-only textual log of every control-plane
// decision the fleet takes — admission sheds, hot swaps, alarm
// deliveries. The simulator's determinism bar
// is byte-identity of this trace across runs with the same seed, the
// same bar mhmlint's detorder analyzer enforces on scoring and
// training: if two runs produce different bytes, a decision depended on
// something other than (seed, config).
package fleet

import (
	"bytes"
	"fmt"
)

// Trace accumulates decision lines. A nil *Trace is valid and records
// nothing, so the live controller can run untraced for free. Not
// internally synchronized: the simulator's sequential decision pass is
// the only writer.
type Trace struct {
	buf   bytes.Buffer
	lines int
}

// Eventf appends one formatted decision line. No-op on a nil trace.
func (t *Trace) Eventf(format string, args ...any) {
	if t == nil {
		return
	}
	fmt.Fprintf(&t.buf, format, args...)
	t.buf.WriteByte('\n')
	t.lines++
}

// Bytes returns the accumulated trace (nil for a nil trace).
func (t *Trace) Bytes() []byte {
	if t == nil {
		return nil
	}
	return t.buf.Bytes()
}

// Lines reports the number of recorded decisions.
func (t *Trace) Lines() int {
	if t == nil {
		return 0
	}
	return t.lines
}
