// Package cache simulates the direct-mapped instruction caches of the
// paper's §5.3 experiment: 1/2/4/8 KB caches with 16-byte lines, a fetch
// cost of 1 time unit per hit and 10 per miss, and (optionally) context
// switches that invalidate the whole cache every 10,000 units of time. The
// parameters follow Smith's cache studies, as the paper's do.
package cache

import (
	"fmt"
	"math/bits"
)

// Default experiment parameters from the paper.
const (
	// DefaultLineBytes is the cache line size.
	DefaultLineBytes = 16
	// HitCost and MissCost are the fetch costs in time units.
	HitCost  = 1
	MissCost = 10
	// ContextSwitchInterval is the flush period in time units.
	ContextSwitchInterval = 10000
)

// Cache is one direct-mapped instruction cache fed with instruction
// fetches.
type Cache struct {
	SizeBytes     int64
	LineBytes     int64
	CtxSwitches   bool
	lines         []int64 // tag per line; -1 = invalid
	nextFlushAt   int64
	hits, misses  int64
	cost          int64
	fetches       int64
	flushes       int64
	linesPerCache int64
}

// CheckGeometry reports whether a cache of sizeBytes with lines of
// lineBytes can be built: both must be powers of two with size >= line.
func CheckGeometry(sizeBytes, lineBytes int64) error {
	if sizeBytes <= 0 || lineBytes <= 0 || sizeBytes&(sizeBytes-1) != 0 ||
		lineBytes&(lineBytes-1) != 0 || sizeBytes < lineBytes {
		return fmt.Errorf("cache: bad geometry %d/%d (size and line bytes must be powers of two, size >= line)", sizeBytes, lineBytes)
	}
	return nil
}

// New returns an empty cache of the given size. Size and line bytes must be
// powers of two with size >= line; New panics otherwise (CheckGeometry
// validates them first).
func New(sizeBytes, lineBytes int64, ctxSwitches bool) *Cache {
	if err := CheckGeometry(sizeBytes, lineBytes); err != nil {
		panic(err)
	}
	n := sizeBytes / lineBytes
	c := &Cache{
		SizeBytes:     sizeBytes,
		LineBytes:     lineBytes,
		CtxSwitches:   ctxSwitches,
		lines:         make([]int64, n),
		linesPerCache: n,
		nextFlushAt:   ContextSwitchInterval,
	}
	for i := range c.lines {
		c.lines[i] = -1
	}
	return c
}

// access references one cache line address (already divided by LineBytes).
func (c *Cache) access(lineAddr int64) {
	if c.CtxSwitches && c.cost >= c.nextFlushAt {
		for i := range c.lines {
			c.lines[i] = -1
		}
		c.flushes++
		for c.nextFlushAt <= c.cost {
			c.nextFlushAt += ContextSwitchInterval
		}
	}
	idx := lineAddr % c.linesPerCache
	c.fetches++
	if c.lines[idx] == lineAddr {
		c.hits++
		c.cost += HitCost
		return
	}
	c.lines[idx] = lineAddr
	c.misses++
	c.cost += MissCost
}

// Fetch records an instruction fetch of size bytes at addr (addr >= 0). An
// instruction straddling a line boundary touches both lines.
func (c *Cache) Fetch(addr, size int64) {
	first := addr / c.LineBytes
	last := (addr + size - 1) / c.LineBytes
	c.access(first)
	if last != first {
		c.access(last)
	}
}

// Stats summarizes the run.
type Stats struct {
	SizeBytes   int64
	CtxSwitches bool
	Fetches     int64
	Hits        int64
	Misses      int64
	// Cost is the total fetch cost: hits*HitCost + misses*MissCost.
	Cost int64
	// Flushes counts simulated context switches that occurred.
	Flushes int64
}

// MissRatio is misses/fetches (0 for an idle cache).
func (s Stats) MissRatio() float64 {
	if s.Fetches == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Fetches)
}

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats {
	return Stats{
		SizeBytes:   c.SizeBytes,
		CtxSwitches: c.CtxSwitches,
		Fetches:     c.fetches,
		Hits:        c.hits,
		Misses:      c.misses,
		Cost:        c.cost,
		Flushes:     c.flushes,
	}
}

// Bank is a set of caches fed from a single fetch stream, so one program
// run measures every configuration of Table 6 at once.
//
// All of a bank's caches share the line size, so a fetch's line numbers
// are computed once for the whole bank, by shift, and each cache finds its
// set by mask. Consecutive accesses to the same line are not applied one
// by one: they pile up as a run, which each cache takes in closed form
// when the stream moves to another line or the statistics are read.
type Bank struct {
	caches []bankCache
	shift  uint // log2 of the line size
	// line is the line of the pending run, pending its accesses.
	line, pending int64
}

// bankCache is one of a bank's caches. Its hits and cost follow from its
// fetches and misses, so most runs update two counters.
type bankCache struct {
	lines       []int64 // tag per set; -1 = invalid
	mask        int64   // sets - 1
	fetches     int64
	misses      int64
	flushes     int64
	nextFlushAt int64
	sizeBytes   int64
	ctxSwitches bool
}

// NewPaperBank builds the paper's 8 configurations: {1,2,4,8} KB ×
// context switches {on, off}.
func NewPaperBank() *Bank {
	return NewBank([]int64{1 * 1024, 2 * 1024, 4 * 1024, 8 * 1024})
}

// NewBank builds a bank over the given cache sizes (bytes), each in a
// context-switching and a non-switching variant, with the paper's line
// size. Every size must be a power of two of at least DefaultLineBytes;
// NewBank panics otherwise.
func NewBank(sizes []int64) *Bank {
	b := Bank{shift: uint(bits.TrailingZeros64(DefaultLineBytes))}
	for _, sz := range sizes {
		if err := CheckGeometry(sz, DefaultLineBytes); err != nil {
			panic(err)
		}
		for _, ctx := range []bool{true, false} {
			c := bankCache{
				lines:       make([]int64, sz/DefaultLineBytes),
				mask:        sz/DefaultLineBytes - 1,
				nextFlushAt: ContextSwitchInterval,
				sizeBytes:   sz,
				ctxSwitches: ctx,
			}
			c.invalidate()
			b.caches = append(b.caches, c)
		}
	}
	return &b
}

// Fetch feeds one instruction fetch (addr >= 0) to every cache in the
// bank. An instruction straddling a line boundary touches both lines.
func (b *Bank) Fetch(addr, size int64) {
	first := addr >> b.shift
	b.touch(first)
	if last := (addr + size - 1) >> b.shift; last != first {
		b.touch(last)
	}
}

// touch adds one access of line to the stream.
func (b *Bank) touch(line int64) {
	if line == b.line {
		b.pending++
		return
	}
	b.settle()
	b.line, b.pending = line, 1
}

// settle applies the pending run to every cache. Only the run's first
// access can miss; the rest hit, unless a context switch flushes the line
// in between.
func (b *Bank) settle() {
	line, n := b.line, b.pending
	if n == 0 {
		return
	}
	for i := range b.caches {
		c := &b.caches[i]
		if c.ctxSwitches {
			c.runSwitching(line, n)
			continue
		}
		if idx := line & c.mask; c.lines[idx] != line {
			c.lines[idx] = line
			c.misses++
		}
		c.fetches += n
	}
	b.pending = 0
}

// runSwitching applies n accesses of one line to a context-switching
// cache, exactly as n single accesses would. The run's first access, and
// the first after each context switch, may flush and may miss; the
// accesses between them hit until the cost reaches the next switch.
func (c *bankCache) runSwitching(line, n int64) {
	for {
		cost := c.cost()
		if cost >= c.nextFlushAt {
			c.invalidate()
			c.flushes++
			for c.nextFlushAt <= cost {
				c.nextFlushAt += ContextSwitchInterval
			}
		}
		c.fetches++
		if idx := line & c.mask; c.lines[idx] != line {
			c.lines[idx] = line
			c.misses++
			cost += MissCost
		} else {
			cost += HitCost
		}
		n--
		// Accesses that start below the next switch hit.
		hits := min(n, (max(c.nextFlushAt-cost, 0)+HitCost-1)/HitCost)
		c.fetches += hits
		if n -= hits; n == 0 {
			return
		}
	}
}

func (c *bankCache) cost() int64 {
	return (c.fetches-c.misses)*HitCost + c.misses*MissCost
}

func (c *bankCache) invalidate() {
	for i := range c.lines {
		c.lines[i] = -1
	}
}

// Stats returns per-cache statistics in bank order, after applying the
// pending run.
func (b *Bank) Stats() []Stats {
	b.settle()
	out := make([]Stats, len(b.caches))
	for i := range b.caches {
		c := &b.caches[i]
		out[i] = Stats{
			SizeBytes:   c.sizeBytes,
			CtxSwitches: c.ctxSwitches,
			Fetches:     c.fetches,
			Hits:        c.fetches - c.misses,
			Misses:      c.misses,
			Cost:        c.cost(),
			Flushes:     c.flushes,
		}
	}
	return out
}
