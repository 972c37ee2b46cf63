package cache

import (
	"testing"
	"testing/quick"
)

func TestColdMissesThenHits(t *testing.T) {
	c := New(1024, 16, false)
	// First touch of each line misses; repeats hit.
	for i := int64(0); i < 64; i++ {
		c.Fetch(i*16, 4)
	}
	st := c.Stats()
	if st.Misses != 64 || st.Hits != 0 {
		t.Fatalf("cold pass: %d misses %d hits", st.Misses, st.Hits)
	}
	for i := int64(0); i < 64; i++ {
		c.Fetch(i*16, 4)
	}
	st = c.Stats()
	if st.Misses != 64 || st.Hits != 64 {
		t.Fatalf("warm pass: %d misses %d hits", st.Misses, st.Hits)
	}
	if st.Cost != 64*MissCost+64*HitCost {
		t.Errorf("cost = %d", st.Cost)
	}
}

func TestDirectMappedConflicts(t *testing.T) {
	c := New(256, 16, false) // 16 lines
	// Two addresses 256 bytes apart map to the same line and evict each
	// other forever.
	for i := 0; i < 10; i++ {
		c.Fetch(0, 4)
		c.Fetch(256, 4)
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 20 {
		t.Errorf("conflict misses: %d hits %d misses", st.Hits, st.Misses)
	}
}

func TestLineStraddle(t *testing.T) {
	c := New(1024, 16, false)
	// A 6-byte instruction at offset 12 touches two lines.
	c.Fetch(12, 6)
	st := c.Stats()
	if st.Fetches != 2 || st.Misses != 2 {
		t.Errorf("straddle: %+v", st)
	}
	// Fully inside one line: one access.
	c2 := New(1024, 16, false)
	c2.Fetch(0, 4)
	if c2.Stats().Fetches != 1 {
		t.Error("aligned fetch should touch one line")
	}
}

func TestContextSwitchFlush(t *testing.T) {
	on := New(1024, 16, true)
	off := New(1024, 16, false)
	// Keep hitting one line until well past the flush interval.
	for i := 0; i < 3*ContextSwitchInterval; i++ {
		on.Fetch(0, 4)
		off.Fetch(0, 4)
	}
	son, soff := on.Stats(), off.Stats()
	if soff.Misses != 1 {
		t.Errorf("no-flush cache missed %d times", soff.Misses)
	}
	if son.Misses <= soff.Misses {
		t.Error("context switches should add misses")
	}
	if son.Flushes == 0 {
		t.Error("flush counter not advancing")
	}
}

func TestStatsConservation(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(512, 16, true)
		for _, a := range addrs {
			c.Fetch(int64(a), 4)
		}
		st := c.Stats()
		return st.Hits+st.Misses == st.Fetches &&
			st.Cost == st.Hits*HitCost+st.Misses*MissCost &&
			st.MissRatio() >= 0 && st.MissRatio() <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMissRatioMonotoneInSize(t *testing.T) {
	// Bigger direct-mapped caches can suffer from unlucky mappings, but on
	// a sequential sweep larger is never worse.
	small := New(256, 16, false)
	big := New(4096, 16, false)
	for pass := 0; pass < 4; pass++ {
		for a := int64(0); a < 2048; a += 4 {
			small.Fetch(a, 4)
			big.Fetch(a, 4)
		}
	}
	if small.Stats().MissRatio() < big.Stats().MissRatio() {
		t.Error("small cache beat big cache on a sweep")
	}
}

func TestBankOrder(t *testing.T) {
	b := NewPaperBank()
	b.Fetch(0, 4)
	stats := b.Stats()
	if len(stats) != 8 {
		t.Fatalf("bank has %d caches, want 8", len(stats))
	}
	wantSizes := []int64{1024, 1024, 2048, 2048, 4096, 4096, 8192, 8192}
	wantCtx := []bool{true, false, true, false, true, false, true, false}
	for i, st := range stats {
		if st.SizeBytes != wantSizes[i] || st.CtxSwitches != wantCtx[i] {
			t.Errorf("bank[%d] = %d/%v", i, st.SizeBytes, st.CtxSwitches)
		}
		if st.Fetches != 1 {
			t.Errorf("bank[%d] did not receive the fetch", i)
		}
	}
}

func TestNewBankCustomSizes(t *testing.T) {
	stats := NewBank([]int64{128, 256}).Stats()
	if len(stats) != 4 {
		t.Fatalf("custom bank has %d caches, want 4", len(stats))
	}
	if stats[0].SizeBytes != 128 || stats[2].SizeBytes != 256 {
		t.Error("custom sizes wrong")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad geometry")
		}
	}()
	New(100, 16, false) // size not a multiple of line
}
