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

// checkBank feeds the stream to a Bank and to the reference, reading the
// bank's Stats (and comparing them) after every fetch whose index is in
// readAt as well as at the end; every Stats field must match.
func checkBank(t *testing.T, name string, sizes []int64, stream []fetch, readAt ...int) {
	t.Helper()
	b, ref := NewBank(sizes), newReferenceBank(sizes)
	compare := func(at int) {
		t.Helper()
		got, want := b.Stats(), ref.Stats()
		if len(got) != len(want) {
			t.Fatalf("%s: bank has %d caches, reference %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: after %d fetches, cache %d:\n bank      %+v\n reference %+v", name, at, i, got[i], want[i])
			}
		}
	}
	reads := map[int]bool{}
	for _, i := range readAt {
		reads[i] = true
	}
	for i, f := range stream {
		b.Fetch(f.addr, f.size)
		ref.Fetch(f.addr, f.size)
		if reads[i] {
			compare(i + 1)
		}
	}
	compare(len(stream))
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
// flush, straddling fetches, custom sizes, and Stats read mid-stream.
func TestBankMatchesReference(t *testing.T) {
	paper := []int64{1024, 2048, 4096, 8192}

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
