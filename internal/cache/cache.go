// Package cache models the monitored core's L1 instruction cache. The
// paper's prototype snoops *above* the L1 so no fetch is lost; §5.5
// discusses moving the Memometer below a shared cache, where only
// misses are visible, and conjectures the accuracy drop would be small.
// This model lets the monitoring pipeline test that conjecture: place an
// ICache in front of the Memometer and only miss traffic reaches the
// heat map.
package cache

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrConfig wraps invalid cache geometries.
var ErrConfig = errors.New("cache: invalid configuration")

// Config describes an instruction cache geometry.
type Config struct {
	// SizeBytes is the total capacity (default 32 KB, the paper's L1).
	SizeBytes int
	// LineBytes is the cache line size; power of two (default 32).
	LineBytes int
	// Ways is the associativity (default 4).
	Ways int
}

func (c *Config) fill() error {
	if c.SizeBytes == 0 {
		c.SizeBytes = 32 * 1024
	}
	if c.LineBytes == 0 {
		c.LineBytes = 32
	}
	if c.Ways == 0 {
		c.Ways = 4
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two: %w", c.LineBytes, ErrConfig)
	}
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: size %d / ways %d: %w", c.SizeBytes, c.Ways, ErrConfig)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines <= 0 || lines%c.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways: %w", lines, c.Ways, ErrConfig)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: %d sets not a power of two: %w", sets, ErrConfig)
	}
	return nil
}

// ICache is a set-associative instruction cache with LRU replacement.
// Not safe for concurrent use.
type ICache struct {
	lineBits uint
	setMask  uint64
	ways     int
	// tags[set] holds up to `ways` line tags in MRU-first order.
	tags [][]uint64
}

// New builds a cache from cfg (zero fields take the defaults).
func New(cfg Config) (*ICache, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	c := &ICache{
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:  uint64(sets - 1),
		ways:     cfg.Ways,
		tags:     make([][]uint64, sets),
	}
	for i := range c.tags {
		c.tags[i] = make([]uint64, 0, cfg.Ways)
	}
	return c, nil
}

// Access fetches one instruction at addr; it returns true on a miss
// (the access is visible below the cache).
func (c *ICache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	set := line & c.setMask
	ways := c.tags[set]
	for i, tag := range ways {
		if tag == line {
			// Hit: move to MRU.
			copy(ways[1:i+1], ways[:i])
			ways[0] = line
			return false
		}
	}
	// Miss: insert at MRU, evict LRU if full.
	if len(ways) < c.ways {
		ways = append(ways, 0)
	}
	copy(ways[1:], ways)
	ways[0] = line
	c.tags[set] = ways
	return true
}

// AccessBurst models a burst of count fetches executing through the
// instruction stream starting at addr (4 bytes per instruction, capped
// at spanCap bytes — a loop body re-executes the same lines). It returns
// the number of line misses, i.e. the traffic visible below the cache.
func (c *ICache) AccessBurst(addr uint64, count uint32) uint32 {
	if count == 0 {
		return 0
	}
	const spanCap = 256 // loop bodies larger than this are rare in hot code
	span := uint64(count) * 4
	if span > spanCap {
		span = spanCap
	}
	first := addr >> c.lineBits
	last := (addr + span - 1) >> c.lineBits
	var miss uint32
	for line := first; line <= last; line++ {
		if c.Access(line << c.lineBits) {
			miss++
		}
	}
	return miss
}
