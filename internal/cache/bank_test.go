package cache

import (
	"math/rand"
	"testing"
)

// fetch is one instruction fetch of a test stream.
type fetch struct{ addr, size int64 }

// referenceBank feeds a stream to independent Cache.Fetch loops, one per
// configuration, in NewBank's order.
type referenceBank []*Cache

func newReferenceBank(sizes []int64) referenceBank {
	var r referenceBank
	for _, sz := range sizes {
		for _, ctx := range []bool{true, false} {
			r = append(r, New(sz, DefaultLineBytes, ctx))
		}
	}
	return r
}

func (r referenceBank) Fetch(addr, size int64) {
	for _, c := range r {
		c.Fetch(addr, size)
	}
}

func (r referenceBank) Stats() []Stats {
	out := make([]Stats, len(r))
	for i, c := range r {
		out[i] = c.Stats()
	}
	return out
}

// bankPair feeds one fetch stream to a Bank and to the reference.
type bankPair struct {
	bank *Bank
	ref  referenceBank
}

func newBankPair(sizes []int64) bankPair {
	return bankPair{NewBank(sizes), newReferenceBank(sizes)}
}

func (p bankPair) Fetch(addr, size int64) {
	p.bank.Fetch(addr, size)
	p.ref.Fetch(addr, size)
}

// compare reads both sides' Stats, after the given number of fetches;
// every field must match, in the same order.
func (p bankPair) compare(t *testing.T, name string, at int) {
	t.Helper()
	got, want := p.bank.Stats(), p.ref.Stats()
	if len(got) != len(want) {
		t.Fatalf("%s: bank has %d caches, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: after %d fetches, cache %d:\n bank      %+v\n reference %+v", name, at, i, got[i], want[i])
		}
	}
}

// checkBank feeds the stream to a Bank and to the reference, reading the
// bank's Stats (and comparing them) after every fetch whose index is in
// readAt as well as at the end; every Stats field must match.
func checkBank(t *testing.T, name string, sizes []int64, stream []fetch, readAt ...int) {
	t.Helper()
	p := newBankPair(sizes)
	reads := map[int]bool{}
	for _, i := range readAt {
		reads[i] = true
	}
	for i, f := range stream {
		p.Fetch(f.addr, f.size)
		if reads[i] {
			p.compare(t, name, i+1)
		}
	}
	p.compare(t, name, len(stream))
}

// repeat appends n fetches of (addr, size).
func repeat(s []fetch, addr, size int64, n int) []fetch {
	for i := 0; i < n; i++ {
		s = append(s, fetch{addr, size})
	}
	return s
}

// TestBankMatchesReference compares the line-batched bank with one
// Cache.Fetch loop per configuration on streams built to stress the
// closed form: same-line runs that cross the 10,000-unit flush boundary,
// runs whose first access is due for a flush, a line change right after a
// flush, straddling fetches, custom sizes, and Stats read mid-stream; and
// on streams built to stress the shared tag arrays: misses that cascade
// through the sizes, flushes between two accesses of a line the
// non-switching twin still holds, and sizes unsorted, repeated or absent.
func TestBankMatchesReference(t *testing.T) {
	paper := []int64{1024, 2048, 4096, 8192}
	unsorted := []int64{4096, 1024, 4096, 16}

	// Lines 1, 2, 4 and 8 KB apart: going back to the first line misses
	// the sizes below the distance and hits the rest. The smaller caches
	// miss more, so their switching variants flush first.
	var cascade []fetch
	for i := int64(0); i < 800; i++ {
		base := (i * 48) % 1024
		for _, d := range []int64{1024, 2048, 4096, 8192} {
			cascade = repeat(cascade, base, 4, int(1+i%3))
			cascade = repeat(cascade, base+d, 4, int(1+i%5))
			cascade = repeat(cascade, base, 4, 2)
		}
	}
	checkBank(t, "cascade", paper, cascade, 100, 5000, 20001)
	checkBank(t, "cascade, unsorted repeated sizes", unsorted, cascade, 100, 20001)

	// A flush between two accesses of line 0, which every non-switching
	// cache still holds: the switching caches must miss it, the twins hit.
	// First the flush comes due exactly at line 0's return (cost 10,000
	// after two misses and 9,980 hits), then it falls inside another
	// line's run; Stats are read right after line 0's return.
	var dueAtReturn []fetch
	dueAtReturn = repeat(dueAtReturn, 0, 4, 1)
	dueAtReturn = repeat(dueAtReturn, 64, 4, 1+9980)
	dueAtReturn = repeat(dueAtReturn, 0, 4, 3)
	dueAtReturn = repeat(dueAtReturn, 64, 4, 1)
	checkBank(t, "flush due at a held line's return", paper, dueAtReturn, 9982)
	var flushInRun []fetch
	flushInRun = repeat(flushInRun, 0, 4, 1)
	flushInRun = repeat(flushInRun, 64, 4, 20000)
	flushInRun = repeat(flushInRun, 0, 4, 2)
	checkBank(t, "flush inside another line's run", paper, flushInRun, 20001)
	// The same after cascading misses, so that only some switching caches
	// have flushed when line 0 comes back.
	mixed := append(cascade[:len(cascade):len(cascade)], flushInRun...)
	checkBank(t, "flush after cascade", paper, mixed, len(cascade)+20001)
	checkBank(t, "flush after cascade, unsorted repeated sizes", unsorted, mixed, len(cascade)+20001)

	// One miss (cost 10), then hits up to exactly 10,000: the next run's
	// first access is due for a flush, and so is the access after a
	// Stats read in the middle of a run.
	var due []fetch
	due = repeat(due, 0, 4, 1+9990)
	due = repeat(due, 4096, 4, 3)
	due = repeat(due, 0, 4, 25000)
	checkBank(t, "run starts with a flush due", paper, due)
	checkBank(t, "stats read at the flush", paper, due, 9990, 9991, 9992)

	// A line change right after a flush: the run's last access is the
	// one that flushed (and missed).
	var after []fetch
	after = repeat(after, 0, 4, 1+9990+1)
	after = repeat(after, 64, 4, 1)
	after = repeat(after, 0, 4, 2)
	checkBank(t, "line change right after a flush", paper, after, 9991, 9992)

	// A run crossing several flush boundaries, then two line changes.
	var long []fetch
	long = repeat(long, 32, 2, 3*ContextSwitchInterval+17)
	long = repeat(long, 8192+32, 2, 1)
	long = repeat(long, 32, 2, 1)
	checkBank(t, "long run across flushes", paper, long, 5000, 10000, 29999)

	// A flush landing inside the first access of a run: a miss that
	// takes the cost from below the boundary to above it.
	var over []fetch
	over = repeat(over, 0, 4, 1+9985)
	over = repeat(over, 64, 4, 1)
	over = repeat(over, 64, 4, 40)
	over = repeat(over, 128, 4, 12000)
	checkBank(t, "miss straddling the flush boundary", paper, over)

	// Straddling fetches: each touches two lines, so a run alternates.
	var straddle []fetch
	for i := 0; i < 30000; i++ {
		straddle = append(straddle, fetch{12 + int64(i%3)*16, 6})
	}
	checkBank(t, "straddling fetches", paper, straddle, 7, 10001)

	// A sequential sweep with variable instruction sizes, larger than
	// every cache, repeated: conflicts, straddles and flushes together.
	var sweep []fetch
	for pass := 0; pass < 6; pass++ {
		for a := int64(0); a < 3*8192; {
			sz := 1 + (a/7)%9
			sweep = append(sweep, fetch{a, sz})
			a += sz
		}
	}
	checkBank(t, "sweep", paper, sweep, 1000, 40000)
	checkBank(t, "custom sizes", []int64{128, 256}, sweep, 1000, 40000)

	// Random runs over a small working set.
	rng := rand.New(rand.NewSource(1))
	var random []fetch
	for len(random) < 200000 {
		addr := int64(rng.Intn(1<<14)) &^ 3
		size := int64(1 + rng.Intn(8))
		n := 1 + rng.Intn(6)
		if rng.Intn(50) == 0 {
			n = rng.Intn(25000)
		}
		random = repeat(random, addr, size, n)
	}
	checkBank(t, "random runs", paper, random, 1, 99999, 150000)
	checkBank(t, "random runs, custom sizes", []int64{128, 256}, random, 50000)
	checkBank(t, "random runs, unsorted repeated sizes", unsorted, random, 50000)
	checkBank(t, "random runs, no sizes", nil, random, 50000)
}

// FuzzBankMatchesReference decodes bytes into a bank's sizes, a stream of
// same-line runs and the points at which to read Stats, and compares every
// Stats field of the bank with referenceBank's.
//
// The first byte modulo 9 is the number of sizes, and each of the next
// bytes b gives a size of 16<<(b%11) bytes (16 B to 16 KiB), in any order,
// repeats allowed. The rest is runs of 4 bytes: a line number below 2048
// (two bytes, so addresses reach twice the largest size); the offset in
// the line (low 4 bits), the fetch size less one (next 3 bits) and a Stats
// read after the run (top bit); and the run's length (runLength).
func FuzzBankMatchesReference(f *testing.F) {
	// Lines 1, 2, 4 and 8 KB apart with a flush between two accesses of
	// line 0, on the paper's sizes, on unsorted repeated ones and on none.
	runs := []byte{
		0, 0, 0x80, 0, 64, 0, 0x30, 4, 0, 0, 0x80, 1, 128, 0, 0, 2, 0, 0, 0, 1,
		0, 1, 0, 3, 0, 0, 0x80, 0, 0, 2, 0x7c, 0, 0, 0, 0x80, 0x80 | 37,
		16, 0, 0, 0xc0 | 3, 0, 0, 0x80, 5, 64, 0, 0x80, 0,
	}
	f.Add(append([]byte{4, 6, 7, 8, 9}, runs...))
	f.Add(append([]byte{4, 8, 6, 8, 0}, runs...))
	f.Add(append([]byte{0}, runs...))
	// Line 0, line 4, then line 0 again for exactly as long as it takes
	// the last access to come due for a flush, with a Stats read after it.
	f.Add([]byte{4, 6, 7, 8, 9, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0x80, 0xc0 | 4, 4, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) <= int(data[0]%9) {
			return
		}
		sizes := make([]int64, data[0]%9)
		for i := range sizes {
			sizes[i] = 16 << (data[1+i] % 11)
		}
		p := newBankPair(sizes)
		fetches := 0
		// The fetch cap bounds an input's time; a few flushes fit under it.
		for data = data[1+len(sizes):]; len(data) >= 4 && fetches < 1<<18; data = data[4:] {
			line := int64(data[0]) | int64(data[1]&7)<<8
			addr, size := line*DefaultLineBytes+int64(data[2]&15), 1+int64(data[2]>>4&7)
			n := runLength(p.ref, data[3])
			for i := 0; i < n; i++ {
				p.Fetch(addr, size)
			}
			if fetches += n; data[2]&0x80 != 0 {
				p.compare(t, "fuzz", fetches)
			}
		}
		p.compare(t, "fuzz", fetches)
	})
}

// runLength decodes a fuzz run's length from b: 1 to 128 accesses when
// the top bit is clear, 256 to 16,384 when the next bit is clear too, and
// otherwise the accesses that would take one of ref's switching caches
// (bits 3-5 pick it) up to its next flush if they all hit, -3 to +4 (low 3
// bits), so that runs end at, just before and just after a flush.
func runLength(ref referenceBank, b byte) int {
	switch {
	case b&0x80 == 0:
		return 1 + int(b&0x7f)
	case b&0x40 == 0:
		return (1 + int(b&0x3f)) * 256
	case len(ref) == 0:
		return 1 + int(b&7)
	}
	c := ref[2*(int(b>>3&7)%(len(ref)/2))]
	return max(1, int(c.nextFlushAt-c.cost)/HitCost+int(b&7)-3)
}

func TestNewBankRejectsBadSizes(t *testing.T) {
	for _, sz := range []int64{0, 48, 1000, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBank(%d) did not panic", sz)
				}
			}()
			NewBank([]int64{sz})
		}()
	}
}

func TestCheckGeometry(t *testing.T) {
	for _, g := range []struct {
		size, line int64
		ok         bool
	}{
		{1024, 16, true}, {16, 16, true}, {1 << 20, 16, true},
		{1000, 16, false}, {48, 16, false}, {0, 16, false}, {-1024, 16, false},
		{1024, 0, false}, {1024, 12, false}, {8, 16, false},
	} {
		if err := CheckGeometry(g.size, g.line); (err == nil) != g.ok {
			t.Errorf("CheckGeometry(%d, %d) = %v, want ok=%v", g.size, g.line, err, g.ok)
		}
	}
}
