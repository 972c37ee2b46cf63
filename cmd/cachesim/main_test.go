package main

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/ease"
	"repro/internal/encode"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/pipeline"
)

// The trace this command replays is produced by `ease -trace`, whose fetch
// addresses come from vm.NewLayout, which internal/encode lays out. These
// tests pin the x86 end of that contract: the trace carries the encoded
// byte offsets of the displacement fixpoint, not flat worst-case InstSize
// sums, and replaying it through a cache is deterministic.

const traceSrc = `
int tab[16];
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 16; i++) {
		if (i - i/3*3 == 0)
			tab[i] = i;
		else
			tab[i] = -i;
	}
	for (i = 0; i < 16; i++)
		s += tab[i];
	printint(s);
	return 0;
}`

type fetch struct{ addr, size int64 }

// traceX86 measures traceSrc on the x86 at JUMPS and returns the fetch
// trace plus the optimized program's encoded layout.
func traceX86(t *testing.T) ([]fetch, *encode.Program, int64) {
	t.Helper()
	prog, err := mcc.Compile(traceSrc)
	if err != nil {
		t.Fatal(err)
	}
	var trace []fetch
	run, err := ease.MeasureProgram(prog, ease.Request{
		Name:    "trace",
		Machine: machine.X86,
		Level:   pipeline.Jumps,
		OnFetch: func(addr, size int64) { trace = append(trace, fetch{addr, size}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// MeasureProgram optimized prog in place; the layout of the optimized
	// program is exactly what the VM fetched from.
	return trace, encode.LayoutProgram(prog, machine.X86), run.CodeBytes
}

func TestX86TraceUsesEncodedOffsets(t *testing.T) {
	trace, ep, codeBytes := traceX86(t)
	if len(trace) == 0 {
		t.Fatal("empty fetch trace")
	}
	if codeBytes != ep.CodeBytes {
		t.Fatalf("run reports %d code bytes, layout %d", codeBytes, ep.CodeBytes)
	}
	// Index every encoded instruction position.
	type pos struct{ addr, size int64 }
	valid := map[pos]bool{}
	short := 0
	flat := int64(0)
	for fi, ef := range ep.Funcs {
		base := ep.FuncBase[fi]
		for bi := range ef.Off {
			for ii := range ef.Off[bi] {
				valid[pos{base + ef.Off[bi][ii], ef.Size[bi][ii]}] = true
			}
		}
		short += ef.Short
	}
	for _, f := range trace {
		flat += f.size
		if !valid[pos{f.addr, f.size}] {
			t.Fatalf("fetch (%d,%d) is not an encoded instruction position", f.addr, f.size)
		}
	}
	// The fixpoint must have found short forms in this loopy program, so
	// the encoded footprint is strictly smaller than the all-near
	// worst case InstSize would report.
	if short == 0 {
		t.Error("no short jumps in the optimized program; fixpoint degenerated")
	}
	sawShortJump := false
	for _, f := range trace {
		if f.size == 2 {
			sawShortJump = true
			break
		}
	}
	if !sawShortJump {
		t.Error("trace never fetched a 2-byte instruction; encoded sizes not flowing")
	}
}

func TestCacheReplayGoldenX86(t *testing.T) {
	trace, _, _ := traceX86(t)
	c := cache.New(1024, cache.DefaultLineBytes, false)
	for _, f := range trace {
		c.Fetch(f.addr, f.size)
	}
	st := c.Stats()
	// The cache counts one access per line touched, so a line-crossing
	// instruction counts twice.
	if st.Fetches < int64(len(trace)) || st.Fetches > 2*int64(len(trace)) {
		t.Errorf("cache saw %d fetches for a %d-instruction trace", st.Fetches, len(trace))
	}
	// Replay determinism: a second measurement must produce the identical
	// trace and therefore identical cache statistics.
	trace2, _, _ := traceX86(t)
	c2 := cache.New(1024, cache.DefaultLineBytes, false)
	for _, f := range trace2 {
		c2.Fetch(f.addr, f.size)
	}
	if st2 := c2.Stats(); st2 != st {
		t.Errorf("replay stats differ: %+v vs %+v", st, st2)
	}
	// Golden: the whole program fits in 1 KB, so after the cold misses
	// everything hits.
	if st.Misses >= st.Fetches/10 {
		t.Errorf("miss count %d out of %d fetches; expected cold misses only", st.Misses, st.Fetches)
	}
	if st.Hits+st.Misses != st.Fetches {
		t.Errorf("stats do not add up: %+v", st)
	}
}

// TestParseSizes checks the -sizes and -line validation: a geometry the
// cache cannot build is a usage error, not a panic.
func TestParseSizes(t *testing.T) {
	for _, c := range []struct {
		sizes string
		line  int64
		ok    bool
	}{
		{"1024,2048,4096,8192", 16, true},
		{"128, 256", 32, true},
		{"1000", 16, false},
		{"48", 16, false},
		{"8", 16, false},
		{"0", 16, false},
		{"x", 16, false},
		{"1024", 12, false},
		{"1024", 0, false},
	} {
		_, err := parseSizes(c.sizes, c.line)
		if (err == nil) != c.ok {
			t.Errorf("parseSizes(%q, %d) = %v, want ok=%v", c.sizes, c.line, err, c.ok)
		}
	}
}
