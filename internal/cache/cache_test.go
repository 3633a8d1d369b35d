package cache

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCache(t *testing.T, cfg Config) *ICache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDefaults(t *testing.T) {
	c := mustCache(t, Config{})
	if c.ways != 4 || c.lineBits != 5 {
		t.Errorf("defaults: ways=%d lineBits=%d", c.ways, c.lineBits)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{LineBytes: 48},                          // not power of two
		{SizeBytes: -1},                          // negative
		{Ways: -2},                               // negative
		{SizeBytes: 96, LineBytes: 32, Ways: 4},  // 3 lines not divisible by 4
		{SizeBytes: 384, LineBytes: 32, Ways: 4}, // 3 sets, not a power of two
	}
	for i, cfg := range bad {
		if _, err := New(cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("case %d: %v", i, err)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustCache(t, Config{})
	if !c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if c.Access(0x1000) {
		t.Error("second access missed")
	}
	// Same line, different byte.
	if c.Access(0x101F) {
		t.Error("same-line access missed")
	}
	// Next line.
	if !c.Access(0x1020) {
		t.Error("next-line cold access hit")
	}
}

func TestLRUEviction(t *testing.T) {
	// Tiny cache: 2 ways, 1 set, 32 B lines.
	c := mustCache(t, Config{SizeBytes: 64, LineBytes: 32, Ways: 2})
	a, b, d := uint64(0x0), uint64(0x1000), uint64(0x2000) // same set
	c.Access(a)
	c.Access(b)
	if c.Access(a) {
		t.Error("a evicted too early")
	}
	// Insert d: evicts LRU = b.
	c.Access(d)
	if c.Access(b) == false {
		t.Error("b should have been evicted")
	}
	// b's re-insert evicted a (LRU after d's insert made order d,a).
	if c.Access(d) {
		t.Error("d evicted unexpectedly")
	}
}

func TestAccessBurstCountsLineMisses(t *testing.T) {
	c := mustCache(t, Config{LineBytes: 32})
	// 16 instructions = 64 bytes = 2 lines, cold: 2 misses.
	if got := c.AccessBurst(0x2000, 16); got != 2 {
		t.Errorf("cold burst misses = %d, want 2", got)
	}
	// Re-run: all resident.
	if got := c.AccessBurst(0x2000, 16); got != 0 {
		t.Errorf("warm burst misses = %d, want 0", got)
	}
	// Huge count is capped at the loop-body span.
	if got := c.AccessBurst(0x4000, 1_000_000); got != 256/32 {
		t.Errorf("capped burst misses = %d, want %d", got, 256/32)
	}
	if got := c.AccessBurst(0x8000, 0); got != 0 {
		t.Errorf("zero burst misses = %d", got)
	}
}

func TestWorkingSetFitsAfterWarmup(t *testing.T) {
	// A working set smaller than capacity stops missing after one pass.
	c := mustCache(t, Config{SizeBytes: 4096, LineBytes: 32, Ways: 4})
	addrs := make([]uint64, 64) // 64 lines = 2 KB < 4 KB
	for i := range addrs {
		addrs[i] = uint64(i) * 32
	}
	for _, a := range addrs {
		c.Access(a)
	}
	misses := 0
	for pass := 0; pass < 5; pass++ {
		for _, a := range addrs {
			if c.Access(a) {
				misses++
			}
		}
	}
	if misses != 0 {
		t.Errorf("resident working set still missing: %d misses after warmup", misses)
	}
}

func TestThrashingWorkingSetMisses(t *testing.T) {
	// A working set larger than capacity keeps missing.
	c := mustCache(t, Config{SizeBytes: 1024, LineBytes: 32, Ways: 2})
	misses := 0
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 128; i++ { // 128 lines = 4 KB > 1 KB
			if c.Access(uint64(i) * 32) {
				misses++
			}
		}
	}
	if ratio := float64(misses) / (3 * 128); ratio < 0.5 {
		t.Errorf("thrashing miss ratio %g unexpectedly low", ratio)
	}
}

// TestMissesNeverExceedAccessesProperty: a burst of word-aligned
// fetches never reports more line misses than it fetches instructions,
// nor more than the lines its span covers.
func TestMissesNeverExceedAccessesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(Config{SizeBytes: 2048, LineBytes: 32, Ways: 2})
		if err != nil {
			return false
		}
		for i := 0; i < 500; i++ {
			addr, count := 4*uint64(rng.Intn(1<<14)), uint32(1+rng.Intn(100))
			lines := (addr+4*uint64(count)-1)/32 - addr/32 + 1
			if miss := c.AccessBurst(addr, count); miss > count || uint64(miss) > lines {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
