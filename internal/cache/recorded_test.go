package cache_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/ease"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

// recordStream runs one Table-3 cell and returns its instruction-fetch
// stream as (addr, size) pairs.
func recordStream(t testing.TB, prog string, m *machine.Machine, lv pipeline.Level) [][2]int64 {
	t.Helper()
	p := bench.ProgramByName(prog)
	if p == nil {
		t.Fatalf("unknown program %q", prog)
	}
	var stream [][2]int64
	_, err := ease.Measure(ease.Request{
		Name: p.Name, Source: p.Source, Input: []byte(p.Input),
		Machine: m, Level: lv,
		OnFetch: func(addr, size int64) { stream = append(stream, [2]int64{addr, size}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// TestBankMatchesReferenceOnRecordedStreams replays recorded Table-3
// fetch streams into the paper's bank and into one Cache.Fetch loop per
// configuration; every Stats field must match, read at each quarter of
// the stream. sort at JUMPS runs on every machine (x86's variable-length
// instructions straddle lines). od on the 68020 at DUPS and deroff on the
// SPARC at LOOPS miss at different rates per size (od: 32,709 misses at
// 1 KB, 130 at 4 KB), so their runs leave the bank's fast path.
func TestBankMatchesReferenceOnRecordedStreams(t *testing.T) {
	type cell struct {
		prog string
		m    *machine.Machine
		lv   pipeline.Level
	}
	var cells []cell
	for _, m := range machine.All() {
		cells = append(cells, cell{"sort", m, pipeline.Jumps})
	}
	cells = append(cells, cell{"od", machine.M68020, pipeline.Dups}, cell{"deroff", machine.SPARC, pipeline.Loops})
	for _, c := range cells {
		name := fmt.Sprintf("%s %s/%s", c.prog, c.m.Name, c.lv)
		stream := recordStream(t, c.prog, c.m, c.lv)
		bank := cache.NewPaperBank()
		var ref []*cache.Cache
		for _, sz := range []int64{1024, 2048, 4096, 8192} {
			ref = append(ref, cache.New(sz, cache.DefaultLineBytes, true), cache.New(sz, cache.DefaultLineBytes, false))
		}
		compare := func(at int) []cache.Stats {
			t.Helper()
			got := bank.Stats()
			for i, c := range ref {
				if want := c.Stats(); got[i] != want {
					t.Fatalf("%s: after %d fetches, cache %d:\n bank      %+v\n reference %+v", name, at, i, got[i], want)
				}
			}
			return got
		}
		for i, f := range stream {
			bank.Fetch(f[0], f[1])
			for _, c := range ref {
				c.Fetch(f[0], f[1])
			}
			if q := len(stream) / 4; i == q || i == 2*q || i == 3*q {
				compare(i + 1)
			}
		}
		got := compare(len(stream))
		if got[0].Flushes == 0 {
			t.Errorf("%s: the stream never reached a context switch", name)
		}
		if c.prog != "sort" && got[1].Misses == got[5].Misses {
			t.Errorf("%s: 1 KB and 4 KB miss alike (%d), the stream does not reach past the smallest size", name, got[1].Misses)
		}
	}
}
