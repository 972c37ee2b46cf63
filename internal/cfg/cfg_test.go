package cfg

import (
	"strings"
	"testing"

	"repro/internal/rtl"
)

// buildDiamond builds:
//
//	b0: cmp; br -> b2
//	b1: (fallthrough) jmp b3
//	b2: ...
//	b3: ret
func buildDiamond(t *testing.T) (*Func, []*Block) {
	t.Helper()
	f := NewFunc("d", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	b0.Insts = []rtl.Inst{
		{Kind: rtl.Cmp, Src: rtl.R(rtl.VRegBase), Src2: rtl.Imm(0)},
		{Kind: rtl.Br, BrRel: rtl.Eq, Target: b2.Label},
	}
	b1.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(rtl.VRegBase + 1), Src: rtl.Imm(1)},
		{Kind: rtl.Jmp, Target: b3.Label},
	}
	b2.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(rtl.VRegBase + 1), Src: rtl.Imm(2)},
	}
	b3.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	return f, []*Block{b0, b1, b2, b3}
}

func TestEdgesDiamond(t *testing.T) {
	f, bs := buildDiamond(t)
	e := ComputeEdges(f)
	wantSuccs := [][]int{{1, 2}, {3}, {3}, {}}
	for i, want := range wantSuccs {
		got := e.Succs[i]
		if len(got) != len(want) {
			t.Fatalf("block %d: %d succs, want %d", i, len(got), len(want))
		}
		for j, w := range want {
			if got[j] != bs[w] {
				t.Errorf("block %d succ %d = L%d, want L%d", i, j, got[j].Label, bs[w].Label)
			}
		}
	}
	if len(e.Preds[3]) != 2 {
		t.Errorf("join block should have 2 preds, got %d", len(e.Preds[3]))
	}
}

func TestFallThrough(t *testing.T) {
	f, bs := buildDiamond(t)
	if f.FallThrough(bs[0]) != bs[1] {
		t.Error("Br block should fall through")
	}
	if f.FallThrough(bs[1]) != nil {
		t.Error("Jmp block should not fall through")
	}
	if f.FallThrough(bs[2]) != bs[3] {
		t.Error("plain block should fall through")
	}
	if f.FallThrough(bs[3]) != nil {
		t.Error("Ret block should not fall through")
	}
}

func TestRemoveUnreachable(t *testing.T) {
	f, bs := buildDiamond(t)
	// Add an orphan block.
	orphan := f.NewBlock()
	orphan.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	if !RemoveUnreachable(f) {
		t.Fatal("expected a change")
	}
	if len(f.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(f.Blocks))
	}
	if f.BlockByLabel(orphan.Label) != nil {
		t.Error("orphan survived")
	}
	_ = bs
	if RemoveUnreachable(f) {
		t.Error("second run should be a no-op")
	}

	// A dead cycle: L2 and L5 jump to each other, and no reachable block
	// reaches either.
	f, err := ParseFunc(deadCycleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !RemoveUnreachable(f) {
		t.Fatal("expected the dead cycle to go")
	}
	var labels []string
	for _, b := range f.Blocks {
		labels = append(labels, b.Label.String())
	}
	if got := strings.Join(labels, " "); got != "L0 L1 L3 L4" {
		t.Errorf("blocks %s after the walk, want L0 L1 L3 L4", got)
	}
}

// deadCycleSrc is a diamond with two unreachable blocks, L2 and L5, that
// jump to each other.
const deadCycleSrc = `func u(params=1, locals=1):
L0:
	CC = L[fp+0] ? #0
	PC = CC == 0, L3
L1:
	v0 = #1
	PC = L4
L2:
	PC = L5
L3:
	v0 = #2
L4:
	PC = RT, rv=v0
L5:
	PC = L2
`

func TestDominatorsDiamond(t *testing.T) {
	f, _ := buildDiamond(t)
	e := ComputeEdges(f)
	d := ComputeDominators(e)
	// Entry dominates everything; neither arm dominates the join.
	for i := 0; i < 4; i++ {
		if !d.Dominates(0, i) {
			t.Errorf("entry should dominate block %d", i)
		}
	}
	if d.Dominates(1, 3) || d.Dominates(2, 3) {
		t.Error("diamond arms must not dominate the join")
	}
	// No non-entry block dominates another, so the entry is the immediate
	// dominator of both arms and the join.
	for i := 1; i < 4; i++ {
		for j := 1; j < 4; j++ {
			if i != j && d.Dominates(j, i) {
				t.Errorf("block %d dominates block %d; only the entry should", j, i)
			}
		}
	}
}

// buildLoop builds a while-shape:
//
//	b0: entry (falls into b1)
//	b1: header: cmp; br -> b3 (exit)
//	b2: body: jmp b1
//	b3: ret
func buildLoop(t *testing.T) (*Func, []*Block) {
	t.Helper()
	f := NewFunc("l", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	b0.Insts = []rtl.Inst{{Kind: rtl.Move, Dst: rtl.R(rtl.VRegBase), Src: rtl.Imm(0)}}
	b1.Insts = []rtl.Inst{
		{Kind: rtl.Cmp, Src: rtl.R(rtl.VRegBase), Src2: rtl.Imm(10)},
		{Kind: rtl.Br, BrRel: rtl.Ge, Target: b3.Label},
	}
	b2.Insts = []rtl.Inst{
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(rtl.VRegBase), Src: rtl.R(rtl.VRegBase), Src2: rtl.Imm(1)},
		{Kind: rtl.Jmp, Target: b1.Label},
	}
	b3.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	return f, []*Block{b0, b1, b2, b3}
}

func TestNaturalLoops(t *testing.T) {
	f, bs := buildLoop(t)
	e := ComputeEdges(f)
	d := ComputeDominators(e)
	loops := NaturalLoops(e, d)
	if len(loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(loops))
	}
	l := loops[0]
	if l.Header != bs[1] {
		t.Errorf("header = L%d, want L%d", l.Header.Label, bs[1].Label)
	}
	if !l.Contains(1) || !l.Contains(2) {
		t.Error("loop should contain header and body")
	}
	if l.Contains(0) || l.Contains(3) {
		t.Error("loop must not contain entry or exit")
	}
	if len(l.Latches) != 1 || l.Latches[0] != bs[2] {
		t.Error("latch should be the body block")
	}
	if lh := LoopHeaderOf(loops, bs[1]); lh != l {
		t.Error("LoopHeaderOf(header) should find the loop")
	}
	if lh := LoopHeaderOf(loops, bs[2]); lh != nil {
		t.Error("LoopHeaderOf(body) should be nil")
	}
	if il := InnermostLoopContaining(loops, 2); il != l {
		t.Error("InnermostLoopContaining broken")
	}
}

func TestNestedLoops(t *testing.T) {
	// outer: b1..b4, inner: b2..b3.
	f := NewFunc("n", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock() // outer header
	b2 := f.NewBlock() // inner header
	b3 := f.NewBlock() // inner latch
	b4 := f.NewBlock() // outer latch
	b5 := f.NewBlock() // exit
	cmpbr := func(target rtl.Label) []rtl.Inst {
		return []rtl.Inst{
			{Kind: rtl.Cmp, Src: rtl.R(rtl.VRegBase), Src2: rtl.Imm(0)},
			{Kind: rtl.Br, BrRel: rtl.Eq, Target: target},
		}
	}
	b0.Insts = nil
	b1.Insts = cmpbr(b5.Label)
	b2.Insts = cmpbr(b4.Label)
	b3.Insts = []rtl.Inst{{Kind: rtl.Jmp, Target: b2.Label}}
	b4.Insts = []rtl.Inst{{Kind: rtl.Jmp, Target: b1.Label}}
	b5.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	e := ComputeEdges(f)
	d := ComputeDominators(e)
	loops := NaturalLoops(e, d)
	if len(loops) != 2 {
		t.Fatalf("got %d loops, want 2", len(loops))
	}
	inner := InnermostLoopContaining(loops, b3.Index)
	if inner == nil || inner.Header != b2 {
		t.Fatal("innermost loop of inner latch should be the inner loop")
	}
	outer := InnermostLoopContaining(loops, b4.Index)
	if outer == nil || outer.Header != b1 {
		t.Fatal("innermost loop of outer latch should be the outer loop")
	}
	if len(inner.BlockIndices()) >= len(outer.BlockIndices()) {
		t.Error("inner loop should be smaller than outer")
	}
}

func TestReducibility(t *testing.T) {
	f, _ := buildLoop(t)
	if !IsReducible(f) {
		t.Error("while loop should be reducible")
	}
	// Make it irreducible: a second entry into the loop body.
	f2, bs := buildLoop(t)
	bs[0].Insts = append(bs[0].Insts,
		rtl.Inst{Kind: rtl.Cmp, Src: rtl.R(rtl.VRegBase), Src2: rtl.Imm(5)},
		rtl.Inst{Kind: rtl.Br, BrRel: rtl.Lt, Target: bs[2].Label})
	if IsReducible(f2) {
		t.Error("two-entry loop should be irreducible")
	}
}

func TestDeleteJumpsToNext(t *testing.T) {
	f := NewFunc("j", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b0.Insts = []rtl.Inst{{Kind: rtl.Jmp, Target: b1.Label}}
	b1.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	if !DeleteJumpsToNext(f) {
		t.Fatal("expected deletion")
	}
	if len(b0.Insts) != 0 {
		t.Error("jump not deleted")
	}
}

func TestReorderBlocks(t *testing.T) {
	// Layout: b0 jmp b2; b1 ret; b2 jmp b1 — reordering can fuse the
	// chains and delete both jumps.
	f := NewFunc("r", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b0.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(rtl.VRegBase), Src: rtl.Imm(1)},
		{Kind: rtl.Jmp, Target: b2.Label},
	}
	b1.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	b2.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(rtl.VRegBase + 1), Src: rtl.Imm(2)},
		{Kind: rtl.Jmp, Target: b1.Label},
	}
	if !ReorderBlocks(f) {
		t.Fatal("expected reordering")
	}
	jumps := 0
	for _, b := range f.Blocks {
		for ii := range b.Insts {
			if b.Insts[ii].Kind == rtl.Jmp {
				jumps++
			}
		}
	}
	if jumps != 0 {
		t.Errorf("%d jumps left after reordering, want 0", jumps)
	}
	if f.Blocks[0] != b0 {
		t.Error("entry block must stay first")
	}
}

func TestCloneIndependence(t *testing.T) {
	f, bs := buildDiamond(t)
	c := f.Clone()
	// Mutating the clone must not affect the original.
	c.Blocks[0].Insts[0].Src = rtl.Imm(99)
	c.Blocks = c.Blocks[:2]
	if bs[0].Insts[0].Src.Kind == rtl.OImm {
		t.Error("clone shares instruction storage")
	}
	if len(f.Blocks) != 4 {
		t.Error("clone shares the block slice")
	}
	if c.Name != f.Name || c.NParams != f.NParams {
		t.Error("clone lost metadata")
	}
}

func TestInsertAndRemoveBlocks(t *testing.T) {
	f, bs := buildDiamond(t)
	nb := &Block{Label: f.NewLabel()}
	f.InsertBlocksAfter(1, nb)
	if f.Blocks[2] != nb || nb.Index != 2 {
		t.Fatal("insert position wrong")
	}
	if bs[3].Index != 4 {
		t.Error("renumbering broken")
	}
	f.RemoveBlocks(map[rtl.Label]bool{nb.Label: true})
	if len(f.Blocks) != 4 || bs[3].Index != 3 {
		t.Error("removal broken")
	}
}

func TestNumRTLs(t *testing.T) {
	f, _ := buildDiamond(t)
	if n := f.NumRTLs(); n != 6 {
		t.Errorf("NumRTLs = %d, want 6", n)
	}
	p := &Program{Funcs: []*Func{f, f}}
	if p.NumRTLs() != 12 {
		t.Error("program NumRTLs broken")
	}
}

func TestBlockTerm(t *testing.T) {
	f, bs := buildDiamond(t)
	_ = f
	if bs[0].Term() == nil || bs[0].Term().Kind != rtl.Br {
		t.Error("Br terminator not found")
	}
	if bs[2].Term() != nil {
		t.Error("fall-through block should have no terminator")
	}
}
