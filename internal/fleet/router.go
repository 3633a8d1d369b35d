// Stream→shard routing for the fleet controller and simulator. Every
// stream maps to exactly one shard of a fixed set, so one worker owns
// the stream's order, and the mapping is a pure function of (stream,
// shard count), so any component can recompute it without
// coordination.
//
// The map is stream % shards: on a fixed shard set it spreads streams
// exactly evenly. Which shard a stream lands on decides which queue it
// competes for, so changing the map changes shed decisions and every
// decision trace with them.
package fleet

// splitmix64 is the stateless mixer used everywhere the fleet needs a
// reproducible pseudo-random value keyed by identifiers (workload
// noise, the simulator's phase stagger): one multiply-xor-shift chain
// per draw, no shared generator state, bit-stable on every platform.
//
//mhm:deterministic
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RouteStream maps a stream to its owning shard in [0, shards):
// stream % shards. It is a pure function: callers on any goroutine, the
// simulator and the live controller all agree on the owner without
// shared state. stream must be >= 0 and shards >= 1.
//
//mhm:deterministic
func RouteStream(stream int, shards int) int {
	return stream % shards
}
