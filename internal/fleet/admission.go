// Admission control for the fleet controller. Back-pressure (a
// blocking Submit) would let one slow shard stall every monitor that
// submits to it, so the controller sheds instead — and it sheds fairly
// per stream, not per shard: a
// stream that already has its share of work in flight is rejected
// before an idle stream ever is, so a hot device cannot starve the
// quiet ones that share its shard.
package fleet

// Shed reasons, recorded in the decision trace and the shed counter.
// Ordered by severity: queue-full is a hard limit, stream-cap and
// high-water are fairness decisions.
const (
	// ShedQueueFull: the shard queue is at capacity; nothing is admitted.
	ShedQueueFull = "queue-full"
	// ShedStreamCap: the stream already has MaxPerStream intervals in
	// flight; admitting more would let it monopolize the queue.
	ShedStreamCap = "stream-cap"
	// ShedHighWater: the shard queue is above the high-water mark, where
	// only streams with nothing in flight are admitted — the per-stream
	// fairness rule under overload.
	ShedHighWater = "high-water"
)

// admitVerdict is the fleet's single admission decision, shared by the
// live controller and the simulator so both shed identically. It
// inspects the target shard's queue occupancy (qlen of qcap), the
// submitting stream's in-flight count against its cap, and the
// high-water mark above which only idle streams are admitted. The
// returned reason is "" when the submission is admitted.
//
//mhm:deterministic
func admitVerdict(qlen, qcap, inflight, streamCap, highWater int) string {
	if qlen >= qcap {
		return ShedQueueFull
	}
	if inflight >= streamCap {
		return ShedStreamCap
	}
	if qlen >= highWater && inflight > 0 {
		return ShedHighWater
	}
	return ""
}

// highWaterMark derives the occupancy threshold for the fairness rule
// from the queue capacity and the configured fraction.
//
//mhm:deterministic
func highWaterMark(qcap int, frac float64) int {
	hw := int(frac * float64(qcap))
	if hw < 1 {
		hw = 1
	}
	if hw > qcap {
		hw = qcap
	}
	return hw
}
