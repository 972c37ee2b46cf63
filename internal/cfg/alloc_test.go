package cfg

import (
	"runtime"
	"testing"

	"repro/internal/rtl"
)

// buildChainLoop builds a function with enough structure to exercise the
// analysis arenas: a chain of conditional-branch blocks closed into a loop.
func buildChainLoop(n int) *Func {
	f := NewFunc("chain", 0)
	blocks := make([]*Block, n)
	for i := range blocks {
		blocks[i] = f.NewBlock()
	}
	for i, b := range blocks {
		b.Insts = []rtl.Inst{
			{Kind: rtl.Cmp, Src: rtl.R(rtl.VRegBase), Src2: rtl.Imm(int64(i))},
			{Kind: rtl.Br, BrRel: rtl.Eq, Target: blocks[(i+3)%n].Label},
		}
	}
	blocks[n-1].Insts = []rtl.Inst{{Kind: rtl.Ret}}
	return f
}

// TestAllocsComputeEdges pins the steady-state allocation cost of the
// flow-graph analysis: once the function's scratch arena is warm, a
// ComputeEdges/Release cycle must not allocate at all.
func TestAllocsComputeEdges(t *testing.T) {
	f := buildChainLoop(64)
	ComputeEdges(f).Release() // warm the arena
	got := testing.AllocsPerRun(200, func() {
		ComputeEdges(f).Release()
	})
	if got != 0 {
		t.Errorf("warm ComputeEdges cycle allocates %.0f times, want 0", got)
	}
}

// TestAllocsComputeDominators pins the warm dominator analysis the same
// way: the int32 buffers come from the arena, so a full cycle costs
// exactly one allocation — the *Dominators descriptor.
func TestAllocsComputeDominators(t *testing.T) {
	f := buildChainLoop(64)
	e := ComputeEdges(f)
	ComputeDominators(e).Release() // warm the arena
	got := testing.AllocsPerRun(200, func() {
		ComputeDominators(e).Release()
	})
	e.Release()
	if got > 1 {
		t.Errorf("warm ComputeDominators cycle allocates %.0f times, want at most the descriptor (1)", got)
	}
}

// TestAllocsScratchBuffers pins the arena primitives themselves: borrowing
// and returning a word or int buffer of a size the freelist has seen is
// free.
func TestAllocsScratchBuffers(t *testing.T) {
	f := NewFunc("s", 0)
	scr := f.Scratch()
	scr.PutWords(scr.Words(128))
	scr.PutInts(scr.Ints(128))
	got := testing.AllocsPerRun(200, func() {
		w := scr.Words(128)
		i := scr.Ints(128)
		scr.PutInts(i)
		scr.PutWords(w)
	})
	if got != 0 {
		t.Errorf("warm Words/Ints cycle allocates %.0f times, want 0", got)
	}
}

// TestAllocsGrowingFunction pins the arena's headroom. Replication grows a
// function by a block or so per step and re-runs the analyses after each,
// so buffers sized to the exact block count would be reallocated by every
// cycle. Over 64 cycles that each see one block more, the allocations
// beyond each cycle's fixed descriptors must stay logarithmic.
func TestAllocsGrowingFunction(t *testing.T) {
	const base, steps = 64, 64
	for _, tc := range []struct {
		name  string
		cycle func(*Func)
	}{
		{"ComputeEdges", func(f *Func) { ComputeEdges(f).Release() }},
		{"IsReducible", func(f *Func) { IsReducible(f) }},
		{"RemoveUnreachable", func(f *Func) { RemoveUnreachable(f) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := buildChainLoop(base + steps)
			all := f.Blocks
			f.Blocks = all[:base]
			tc.cycle(f) // warm the arena
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 1; i <= steps; i++ {
				f.Blocks = all[:base+i]
				tc.cycle(f)
			}
			runtime.ReadMemStats(&after)
			fixed := testing.AllocsPerRun(10, func() { tc.cycle(f) })
			grown := float64(after.Mallocs-before.Mallocs) - steps*fixed
			t.Logf("%.0f allocations beyond %.0f fixed per cycle", grown, fixed)
			if grown > 16 {
				t.Errorf("%d cycles, one block more each: %.0f allocations beyond the %.0f fixed per cycle, want at most 16", steps, grown, fixed)
			}
		})
	}
}
