package cache_test

import (
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

// TestBankMatchesReferenceOnRecordedStreams replays the fetch stream of
// sort at JUMPS on every machine (x86's variable-length instructions
// straddle lines) into the paper's bank and into one Cache.Fetch loop per
// configuration; every Stats field must match, read both mid-stream and
// at the end.
func TestBankMatchesReferenceOnRecordedStreams(t *testing.T) {
	for _, m := range machine.All() {
		stream := recordStream(t, "sort", m, pipeline.Jumps)
		bank := cache.NewPaperBank()
		var ref []*cache.Cache
		for _, sz := range []int64{1024, 2048, 4096, 8192} {
			ref = append(ref, cache.New(sz, cache.DefaultLineBytes, true), cache.New(sz, cache.DefaultLineBytes, false))
		}
		compare := func(at int) {
			t.Helper()
			got := bank.Stats()
			for i, c := range ref {
				if want := c.Stats(); got[i] != want {
					t.Fatalf("%s: after %d fetches, cache %d:\n bank      %+v\n reference %+v", m.Name, at, i, got[i], want)
				}
			}
		}
		for i, f := range stream {
			bank.Fetch(f[0], f[1])
			for _, c := range ref {
				c.Fetch(f[0], f[1])
			}
			if i == len(stream)/2 {
				compare(i + 1)
			}
		}
		compare(len(stream))
		if got := bank.Stats(); got[0].Flushes == 0 {
			t.Errorf("%s: the stream never reached a context switch", m.Name)
		}
	}
}
