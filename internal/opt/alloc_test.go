package opt

import (
	"runtime"
	"testing"

	"repro/internal/cfg"
	"repro/internal/rtl"
)

// buildLiveChain builds a straight chain of blocks defining and using a few
// virtual registers, closed by a backward branch so liveness iterates.
func buildLiveChain(n int) *cfg.Func {
	f := cfg.NewFunc("live", 0)
	blocks := make([]*cfg.Block, n)
	for i := range blocks {
		blocks[i] = f.NewBlock()
	}
	for i, b := range blocks {
		r := rtl.VRegBase + rtl.Reg(i%8)
		b.Insts = []rtl.Inst{
			{Kind: rtl.Move, Dst: rtl.R(r), Src: rtl.Imm(int64(i))},
			{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(r), Src: rtl.R(r), Src2: rtl.R(rtl.VRegBase + rtl.Reg((i+1)%8))},
		}
	}
	f.NVRegs = 8
	blocks[n-2].Insts = append(blocks[n-2].Insts,
		rtl.Inst{Kind: rtl.Cmp, Src: rtl.R(rtl.VRegBase), Src2: rtl.Imm(0)},
		rtl.Inst{Kind: rtl.Br, BrRel: rtl.Lt, Target: blocks[0].Label})
	blocks[n-1].Insts = append(blocks[n-1].Insts, rtl.Inst{Kind: rtl.Ret})
	return f
}

// TestAllocsComputeLiveness pins the steady-state cost of the dataflow
// analysis: the In/Out/gen/kill bitsets share one arena-borrowed backing,
// so a warm ComputeLiveness/Release cycle allocates only the fixed
// descriptors (the Liveness struct and its two []RegSet headers), never
// per-block or per-register memory.
func TestAllocsComputeLiveness(t *testing.T) {
	f := buildLiveChain(64)
	e := cfg.ComputeEdges(f)
	ComputeLiveness(f, e).Release() // warm the arena
	got := testing.AllocsPerRun(200, func() {
		ComputeLiveness(f, e).Release()
	})
	e.Release()
	if got > 3 {
		t.Errorf("warm ComputeLiveness cycle allocates %.0f times, want at most 3 fixed descriptors", got)
	}
}

// TestLivenessAllocsIndependentOfSize is the sharper form of the pin: the
// descriptor count must not grow with the function. A regression that
// reintroduces per-block set allocation fails this immediately.
func TestLivenessAllocsIndependentOfSize(t *testing.T) {
	count := func(n int) float64 {
		f := buildLiveChain(n)
		e := cfg.ComputeEdges(f)
		ComputeLiveness(f, e).Release()
		got := testing.AllocsPerRun(100, func() {
			ComputeLiveness(f, e).Release()
		})
		e.Release()
		return got
	}
	small, large := count(16), count(256)
	if large > small {
		t.Errorf("liveness allocations grow with block count: %0.f at 16 blocks, %.0f at 256", small, large)
	}
}

// TestMergeBlocksAllocs pins MergeBlocks' reuse of its edge lists: each
// merge's Edges goes back to the function's Scratch and the absorbed block
// is deleted in place, so collapsing a fall-through chain of 256 blocks
// (255 merges) allocates less than once per four merges, only to grow the
// surviving block's instructions.
func TestMergeBlocksAllocs(t *testing.T) {
	const n = 256
	f := cfg.NewFunc("chain", 0)
	for i := 0; i < n; i++ {
		b := f.NewBlock()
		b.Insts = []rtl.Inst{{Kind: rtl.Move, Dst: rtl.R(rtl.VRegBase), Src: rtl.Imm(int64(i))}}
	}
	f.Blocks[n-1].Insts = append(f.Blocks[n-1].Insts, rtl.Inst{Kind: rtl.Ret})
	f.NVRegs = 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	changed := MergeBlocks(f)
	runtime.ReadMemStats(&after)
	if !changed || len(f.Blocks) != 1 || len(f.Blocks[0].Insts) != n+1 {
		t.Fatalf("chain not collapsed: changed %t, %d blocks left", changed, len(f.Blocks))
	}
	merges := uint64(n - 1)
	got := after.Mallocs - before.Mallocs
	t.Logf("%d merges, %d allocations", merges, got)
	if got >= merges/4 {
		t.Errorf("%d merges allocated %d times, want fewer than %d", merges, got, merges/4)
	}
}

// TestSpillKeepsUnmentionedBlocks pins the spill rewrites' scope: spilling
// or rematerializing a register rewrites only the blocks that read or
// define it, and leaves every other block's instruction slice, backing
// array included, as it was.
func TestSpillKeepsUnmentionedBlocks(t *testing.T) {
	for _, tc := range []struct {
		name string
		def  rtl.Operand // v0's only definition
	}{
		{"spill", rtl.Local(0)},
		{"rematerialize", rtl.Imm(7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v0, v1 := rtl.VRegBase, rtl.VRegBase+1
			f := cfg.NewFunc("spill", 0)
			f.NLocals, f.NVRegs = 1, 2
			def, other, use := f.NewBlock(), f.NewBlock(), f.NewBlock()
			def.Insts = []rtl.Inst{{Kind: rtl.Move, Dst: rtl.R(v0), Src: tc.def}}
			other.Insts = []rtl.Inst{{Kind: rtl.Move, Dst: rtl.R(v1), Src: rtl.Imm(1)}}
			use.Insts = []rtl.Inst{
				{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(v1), Src: rtl.R(v1), Src2: rtl.R(v0)},
				{Kind: rtl.Ret, Src: rtl.R(v1)},
			}
			kept := &other.Insts[0]
			useBefore := &use.Insts[0]
			spillReg(f, v0, &RegSet{})
			if len(other.Insts) != 1 || &other.Insts[0] != kept {
				t.Errorf("block %v does not mention v0 but its instructions were rebuilt", other.Label)
			}
			if &use.Insts[0] == useBefore {
				t.Errorf("block %v reads v0 but was not rewritten", use.Label)
			}
		})
	}
}
