package fleet

import (
	"math/rand"
	"testing"
)

// TestRouteStreamInRange: every stream maps to exactly one shard in
// [0, shards) for a sweep of shard counts.
func TestRouteStreamInRange(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 7, 16, 63, 1024} {
		for stream := 0; stream < 2048; stream++ {
			sh := RouteStream(stream, shards)
			if sh < 0 || sh >= shards {
				t.Fatalf("RouteStream(%d, %d) = %d out of range", stream, shards, sh)
			}
		}
	}
}

// TestRouteStreamResizeProperty is the randomized property test: random
// walks over shard counts, asserting (a) determinism — the same
// (stream, shards) always routes identically — and (b) balance — every
// shard holds its fair share, rounded down or up.
func TestRouteStreamResizeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const streams = 8192
	for trial := 0; trial < 20; trial++ {
		shards := 1 + rng.Intn(96)
		for step := 0; step < 30; step++ {
			if rng.Intn(2) == 0 && shards > 1 {
				shards--
			} else {
				shards++
			}
			for s := 0; s < streams; s++ {
				if RouteStream(s, shards) != RouteStream(s, shards) {
					t.Fatal("RouteStream not deterministic")
				}
			}
		}
		// Balance after the walk.
		load := make([]int, shards)
		for s := 0; s < streams; s++ {
			load[RouteStream(s, shards)]++
		}
		fair := streams / shards
		for sh, n := range load {
			if n != fair && n != fair+1 {
				t.Fatalf("shard %d holds %d streams, fair share %d or %d", sh, n, fair, fair+1)
			}
		}
	}
}

func TestSplitmix64Distinct(t *testing.T) {
	seen := make(map[uint64]bool, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		h := splitmix64(i)
		if seen[h] {
			t.Fatalf("collision at %d", i)
		}
		seen[h] = true
	}
}
