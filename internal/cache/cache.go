// Package cache simulates the direct-mapped instruction caches of the
// paper's §5.3 experiment: 1/2/4/8 KB caches with 16-byte lines, a fetch
// cost of 1 time unit per hit and 10 per miss, and (optionally) context
// switches that invalidate the whole cache every 10,000 units of time. The
// parameters follow Smith's cache studies, as the paper's do.
package cache

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// are computed once for the whole bank, by shift. Consecutive accesses to
// the same line are not applied one by one: they pile up as a run, which
// the bank settles when the stream moves to another line or the
// statistics are read.
//
// The bank keeps one tag array per distinct size, not one per cache. The
// non-switching caches are direct-mapped with power-of-two sizes, so a
// line held by a smaller one is held by every larger one: any line that
// could have evicted it from the larger maps to the same set of the
// smaller (the inclusion behind Mattson et al.'s stack simulation). So
// sizes settle from the smallest up, and once one held the line, the
// larger ones need no compare. A context-switching cache holds a line
// exactly when its non-switching twin holds it and the line's last access
// came at or after the cache's last flush. Runs are numbered, each set of
// the largest cache keeps the number of the last run that reached it (a
// held line is held there too), and a switching cache keeps only its
// misses, its flushes and the run of its last flush. Every cache sees
// every fetch, so the fetch count is kept once.
type Bank struct {
	levels []level // one per distinct size, smallest first
	order  []int   // level of each requested size, in request order
	stamp  []int64 // per set of the largest cache, the run that last reached it
	// stampMask is the largest cache's sets - 1.
	stampMask int64
	fetches   int64
	// run numbers the runs that took the slow path.
	run int64
	// lastFlush is the latest flushRun of any level, due the lowest
	// switchingCache.due: the fast path's bounds, set by the slow path
	// (due starts at 0, so the first run takes it).
	lastFlush, due int64
	shift          uint // log2 of the line size
	// line is the line of the pending run, pending its accesses.
	line, pending int64
}

// level is one cache size of a bank: the non-switching cache's tag array
// and misses, and the context-switching twin derived from it.
type level struct {
	lines     []int64 // tag per set; -1 = invalid
	mask      int64   // sets - 1
	misses    int64
	sizeBytes int64
	sw        switchingCache
}

// switchingCache is the context-switching cache of a level, which holds a
// line when the level's tag array does and the line's stamp is at or
// after flushRun. Its hits and cost follow from the bank's fetch count and
// its misses.
type switchingCache struct {
	misses, flushes int64
	nextFlushAt     int64
	// flushRun is the run of the last flush (0 before the first).
	flushRun int64
}

// NewPaperBank builds the paper's 8 configurations: {1,2,4,8} KB ×
// context switches {on, off}.
func NewPaperBank() *Bank {
	return NewBank([]int64{1 * 1024, 2 * 1024, 4 * 1024, 8 * 1024})
}

// NewBank builds a bank over the given cache sizes (bytes), each in a
// context-switching and a non-switching variant, with the paper's line
// size. Every size must be a power of two of at least DefaultLineBytes;
// NewBank panics otherwise. Sizes may come in any order and repeat; Stats
// reports them as given.
func NewBank(sizes []int64) *Bank {
	for _, sz := range sizes {
		if err := CheckGeometry(sz, DefaultLineBytes); err != nil {
			panic(err)
		}
	}
	distinct := slices.Clone(sizes)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	b := &Bank{
		levels: make([]level, len(distinct)),
		order:  make([]int, len(sizes)),
		shift:  uint(bits.TrailingZeros64(DefaultLineBytes)),
	}
	for i, sz := range distinct {
		lv := &b.levels[i]
		*lv = level{
			lines:     make([]int64, sz/DefaultLineBytes),
			mask:      sz/DefaultLineBytes - 1,
			sizeBytes: sz,
			sw:        switchingCache{nextFlushAt: ContextSwitchInterval},
		}
		for j := range lv.lines {
			lv.lines[j] = -1
		}
	}
	for i, sz := range sizes {
		b.order[i], _ = slices.BinarySearch(distinct, sz)
	}
	if len(distinct) > 0 {
		b.stamp = make([]int64, distinct[len(distinct)-1]/DefaultLineBytes)
		b.stampMask = int64(len(b.stamp) - 1)
	}
	return b
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

// settle applies the pending run to every cache (a bank without sizes
// has none). The fast path takes a run whose line the smallest size holds
// (so every size holds it), whose stamp is at or after every flush (so
// every switching cache holds it too), and during which no switching
// cache comes due for a flush: all n accesses hit everywhere. Misses are
// rare, so almost every run takes it. The slow path settles the sizes from
// the smallest up.
//
// The fast path writes no stamp and numbers no run. The line's last slow
// run reached the stamp at or after every flush so far, and a flush only
// happens on the slow path, so the line's later fast runs fall between
// the same two flushes of every switching cache and compare alike; the
// first access after a new flush finds the stamp older than it and takes
// the slow path.
func (b *Bank) settle() {
	line, n := b.line, b.pending
	if n == 0 || len(b.levels) == 0 {
		return
	}
	b.pending = 0
	small := &b.levels[0]
	if small.lines[line&small.mask] == line && b.stamp[line&b.stampMask] >= b.lastFlush &&
		(b.fetches+n-1)*HitCost < b.due {
		b.fetches += n
		return
	}
	b.run++
	stamp := &b.stamp[line&b.stampMask]
	last := *stamp
	*stamp = b.run
	held := false
	b.lastFlush, b.due = 0, math.MaxInt64
	for i := range b.levels {
		lv := &b.levels[i]
		if !held {
			idx := line & lv.mask
			if held = lv.lines[idx] == line; !held {
				lv.lines[idx] = line
				lv.misses++
			}
		}
		lv.sw.settle(held && last >= lv.sw.flushRun, b.fetches, n, b.run)
		b.lastFlush = max(b.lastFlush, lv.sw.flushRun)
		b.due = min(b.due, lv.sw.due())
	}
	b.fetches += n
}

// settle applies a run of n accesses of one line, the first after f
// fetches, exactly as n single accesses would; present says whether the
// cache holds the line when the run starts. The run's first access, and
// the first after each context switch, may flush and may miss; the
// accesses between them hit until the cost reaches the next switch. A
// flush stamps run.
func (c *switchingCache) settle(present bool, f, n, run int64) {
	for n > 0 {
		now := cost(f, c.misses)
		if now >= c.nextFlushAt {
			c.flushes++
			c.flushRun = run
			present = false
			for c.nextFlushAt <= now {
				c.nextFlushAt += ContextSwitchInterval
			}
		}
		if present {
			now += HitCost
		} else {
			c.misses++
			now += MissCost
			present = true
		}
		// Accesses that start below the next switch hit.
		hits := min(n-1, (max(c.nextFlushAt-now, 0)+HitCost-1)/HitCost)
		f += 1 + hits
		n -= 1 + hits
	}
}

// due bounds the fast path: an access that starts after f fetches finds
// no flush due while f*HitCost < due.
func (c *switchingCache) due() int64 {
	return c.nextFlushAt - cost(0, c.misses)
}

// cost is the total fetch cost of f fetches of which m missed.
func cost(f, m int64) int64 {
	return f*HitCost + m*(MissCost-HitCost)
}

// Stats returns per-cache statistics, after applying the pending run: for
// each size in the order NewBank was given, the context-switching cache
// and then the non-switching one.
func (b *Bank) Stats() []Stats {
	b.settle()
	out := make([]Stats, 0, 2*len(b.order))
	for _, i := range b.order {
		lv := &b.levels[i]
		out = append(out, b.stats(lv.sizeBytes, true, lv.sw.misses, lv.sw.flushes),
			b.stats(lv.sizeBytes, false, lv.misses, 0))
	}
	return out
}

func (b *Bank) stats(sizeBytes int64, ctxSwitches bool, misses, flushes int64) Stats {
	return Stats{
		SizeBytes:   sizeBytes,
		CtxSwitches: ctxSwitches,
		Fetches:     b.fetches,
		Hits:        b.fetches - misses,
		Misses:      misses,
		Cost:        cost(b.fetches, misses),
		Flushes:     flushes,
	}
}
