// Stream→shard routing for the fleet controller and simulator. The
// requirements are a stream-affinity contract over a resizable shard
// set: every stream maps to exactly one shard (so one worker owns the
// stream's order), the mapping is a pure function of (stream, shard
// count) so any component can recompute it without coordination, and a
// resize moves as few streams as possible — ~streams/shards per ±1
// step, not a full reshuffle like `stream mod shards` would.
//
// Jump consistent hashing (Lamping & Veach, arXiv 1406.2294) gives
// exactly that: growing n→n+1 moves only the streams that land on the
// new shard, shrinking n+1→n moves only the streams that were on the
// removed (highest-numbered) shard. Shards are therefore numbered
// 0..n-1 and the autoscaler always adds/removes at the top.
package fleet

// splitmix64 is the stateless mixer used everywhere the fleet needs a
// reproducible pseudo-random value keyed by identifiers (stream keys,
// workload noise): one multiply-xor-shift chain per draw, no shared
// generator state, bit-stable on every platform.
//
//mhm:deterministic
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RouteStream maps a stream to its owning shard in [0, shards) with
// jump consistent hashing. It is a pure function: callers on any
// goroutine, the simulator and the live controller all agree on the
// owner without shared state. shards must be >= 1.
//
//mhm:deterministic
func RouteStream(stream int, shards int) int {
	key := splitmix64(uint64(stream))
	var b, j int64 = -1, 0
	for j < int64(shards) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// MovedStreams counts how many of the streams [0, streams) change
// owner when the shard set resizes from → to — the disruption cost the
// autoscaler weighs and the resize trace records.
//
//mhm:deterministic
func MovedStreams(streams, from, to int) int {
	moved := 0
	for s := 0; s < streams; s++ {
		if RouteStream(s, from) != RouteStream(s, to) {
			moved++
		}
	}
	return moved
}
