package opt

import (
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/machine"
	"repro/internal/rtl"
)

// v returns the i-th virtual register.
func v(i int) rtl.Reg { return rtl.VRegBase + rtl.Reg(i) }

func countKind(f *cfg.Func, k rtl.Kind) int {
	n := 0
	for _, b := range f.Blocks {
		for ii := range b.Insts {
			if b.Insts[ii].Kind == k {
				n++
			}
		}
	}
	return n
}

func TestBranchChainingJumpChain(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock() // jump-only block
	b2 := f.NewBlock() // empty block
	b3 := f.NewBlock()
	b0.Insts = []rtl.Inst{{Kind: rtl.Jmp, Target: b1.Label}}
	b1.Insts = []rtl.Inst{{Kind: rtl.Jmp, Target: b2.Label}}
	// b2 empty: falls into b3
	b3.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	if !BranchChaining(f) {
		t.Fatal("expected chaining")
	}
	if b0.Insts[0].Target != b3.Label {
		t.Errorf("chained to %v, want %v", b0.Insts[0].Target, b3.Label)
	}
	_ = b2
}

func TestBranchChainingCycleSafe(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b0.Insts = []rtl.Inst{{Kind: rtl.Jmp, Target: b1.Label}}
	b1.Insts = []rtl.Inst{{Kind: rtl.Jmp, Target: b2.Label}}
	b2.Insts = []rtl.Inst{{Kind: rtl.Jmp, Target: b1.Label}}
	BranchChaining(f) // must terminate
}

func TestMergeBlocks(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b0.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(1)},
		{Kind: rtl.Jmp, Target: b1.Label},
	}
	b1.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.R(v(0))}}
	if !MergeBlocks(f) {
		t.Fatal("expected merge")
	}
	if len(f.Blocks) != 1 || len(f.Blocks[0].Insts) != 2 {
		t.Fatalf("merge result:\n%s", f)
	}
}

func TestMergeBlocksKeepsLoops(t *testing.T) {
	// A self-loop must not be merged away.
	f := cfg.NewFunc("t", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b0.Insts = nil
	b1.Insts = []rtl.Inst{
		{Kind: rtl.Cmp, Src: rtl.R(v(0)), Src2: rtl.Imm(0)},
		{Kind: rtl.Br, BrRel: rtl.Lt, Target: b1.Label},
	}
	b2.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	before := len(f.Blocks)
	MergeBlocks(f)
	// b0 may merge into nothing (it has a successor with 2 preds), the
	// loop must survive.
	if f.BlockByLabel(b1.Label) == nil {
		t.Fatal("loop block merged away")
	}
	_ = before
}

func TestFoldConstants(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b := f.NewBlock()
	b.Insts = []rtl.Inst{
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(v(0)), Src: rtl.Imm(2), Src2: rtl.Imm(3)},
		{Kind: rtl.Bin, BOp: rtl.Mul, Dst: rtl.R(v(1)), Src: rtl.R(v(0)), Src2: rtl.Imm(1)},
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(v(2)), Src: rtl.R(v(1)), Src2: rtl.Imm(0)},
		{Kind: rtl.Un, UOp: rtl.Neg, Dst: rtl.R(v(3)), Src: rtl.Imm(7)},
		{Kind: rtl.Ret, Src: rtl.R(v(3))},
	}
	if !FoldConstants(f) {
		t.Fatal("expected folding")
	}
	if b.Insts[0].Kind != rtl.Move || b.Insts[0].Src.Val != 5 {
		t.Errorf("2+3 not folded: %v", &b.Insts[0])
	}
	if b.Insts[1].Kind != rtl.Move {
		t.Errorf("*1 not simplified: %v", &b.Insts[1])
	}
	if b.Insts[2].Kind != rtl.Move {
		t.Errorf("+0 not simplified: %v", &b.Insts[2])
	}
	if b.Insts[3].Kind != rtl.Move || b.Insts[3].Src.Val != -7 {
		t.Errorf("neg not folded: %v", &b.Insts[3])
	}
}

func TestFoldBranchesConstantCmp(t *testing.T) {
	mk := func(rel rtl.Rel, x, y int64) *cfg.Func {
		f := cfg.NewFunc("t", 0)
		b0 := f.NewBlock()
		b1 := f.NewBlock()
		b2 := f.NewBlock()
		b0.Insts = []rtl.Inst{
			{Kind: rtl.Cmp, Src: rtl.Imm(x), Src2: rtl.Imm(y)},
			{Kind: rtl.Br, BrRel: rel, Target: b2.Label},
		}
		b1.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.Imm(1)}}
		b2.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.Imm(2)}}
		return f
	}
	taken := mk(rtl.Lt, 1, 2)
	if !FoldBranches(taken) {
		t.Fatal("expected fold")
	}
	if countKind(taken, rtl.Jmp) != 1 || countKind(taken, rtl.Br) != 0 {
		t.Errorf("taken branch should become a jump:\n%s", taken)
	}
	notTaken := mk(rtl.Gt, 1, 2)
	FoldBranches(notTaken)
	if countKind(notTaken, rtl.Jmp) != 0 || countKind(notTaken, rtl.Br) != 0 {
		t.Errorf("untaken branch should vanish:\n%s", notTaken)
	}
}

func TestFoldBranchToNext(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b0.Insts = []rtl.Inst{
		{Kind: rtl.Cmp, Src: rtl.R(v(0)), Src2: rtl.Imm(0)},
		{Kind: rtl.Br, BrRel: rtl.Lt, Target: b1.Label},
	}
	b1.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	if !FoldBranches(f) {
		t.Fatal("expected fold")
	}
	if countKind(f, rtl.Br) != 0 {
		t.Error("branch to next block should be deleted")
	}
	// The now-dead Cmp goes with dead-variable elimination.
	DeadVariableElimination(f)
	if countKind(f, rtl.Cmp) != 0 {
		t.Error("orphan Cmp should be dead")
	}
}

func TestDeadVariableElimination(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b := f.NewBlock()
	b.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(1)},  // dead (overwritten)
		{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(2)},  // live
		{Kind: rtl.Move, Dst: rtl.R(v(1)), Src: rtl.Imm(3)},  // dead (never used)
		{Kind: rtl.Move, Dst: rtl.R(v(2)), Src: rtl.R(v(2))}, // self-move
		{Kind: rtl.Move, Dst: rtl.Local(0), Src: rtl.Imm(9)}, // store: kept
		{Kind: rtl.Ret, Src: rtl.R(v(0))},
	}
	if !DeadVariableElimination(f) {
		t.Fatal("expected elimination")
	}
	if len(b.Insts) != 3 {
		t.Errorf("got %d insts, want 3:\n%s", len(b.Insts), f)
	}
}

func TestDeadVarKeepsLiveAcrossBlocks(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b0.Insts = []rtl.Inst{{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(1)}}
	b1.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.R(v(0))}}
	if DeadVariableElimination(f) {
		t.Errorf("nothing should be dead:\n%s", f)
	}
}

func TestCSELocal(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b := f.NewBlock()
	b.Insts = []rtl.Inst{
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(v(0)), Src: rtl.R(v(9)), Src2: rtl.Imm(4)},
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(v(1)), Src: rtl.R(v(9)), Src2: rtl.Imm(4)}, // same expr
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(v(2)), Src: rtl.R(v(0)), Src2: rtl.R(v(1))},
		{Kind: rtl.Ret, Src: rtl.R(v(2))},
	}
	if !CommonSubexpressions(f, machine.M68020) {
		t.Fatal("expected CSE")
	}
	if b.Insts[1].Kind != rtl.Move || b.Insts[1].Src.Reg != v(0) {
		t.Errorf("redundant add not reused: %v", &b.Insts[1])
	}
}

func TestCSEConstAndCopyProp(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b := f.NewBlock()
	b.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(7)},
		{Kind: rtl.Move, Dst: rtl.R(v(1)), Src: rtl.R(v(0))},
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(v(2)), Src: rtl.R(v(1)), Src2: rtl.Imm(1)},
		{Kind: rtl.Ret, Src: rtl.R(v(2))},
	}
	CommonSubexpressions(f, machine.M68020)
	FoldConstants(f)
	CommonSubexpressions(f, machine.M68020)
	// v2 should now be a constant 8 somewhere along the chain.
	found := false
	for ii := range b.Insts {
		in := &b.Insts[ii]
		if in.Kind == rtl.Move && in.Dst.Kind == rtl.OReg && in.Dst.Reg == v(2) &&
			in.Src.Kind == rtl.OImm && in.Src.Val == 8 {
			found = true
		}
	}
	if !found {
		t.Errorf("constant not propagated through copy:\n%s", f)
	}
}

// TestCSECopyConstantRoundTrip pins CSE's fixpoint. With v252 known to
// hold #0, constant substitution turns `v253 = v252` into `v253 = #0` and
// materialized-constant reuse turns that back into `v253 = v252`: no
// change, so a converged function must report none and stay byte-identical
// (otherwise Figure 3's loop runs to its iteration cap).
func TestCSECopyConstantRoundTrip(t *testing.T) {
	for _, useCopy := range []bool{false, true} {
		f := cfg.NewFunc("t", 0)
		b := f.NewBlock()
		b.Insts = []rtl.Inst{
			{Kind: rtl.Move, Dst: rtl.R(v(252)), Src: rtl.Imm(0)},
			{Kind: rtl.Move, Dst: rtl.R(v(253)), Src: rtl.R(v(252))},
			{Kind: rtl.Ret, Src: rtl.None()},
		}
		if useCopy {
			b.Insts[2].Src = rtl.R(v(253))
			// The return value still changes (v253 becomes #0) in the
			// first call.
			if !CommonSubexpressions(f, machine.M68020) {
				t.Fatalf("first call reported no change:\n%s", f)
			}
		}
		before := f.String()
		if CommonSubexpressions(f, machine.M68020) {
			t.Errorf("useCopy=%t: CSE reported a change on converged code:\n%s", useCopy, before)
		}
		if after := f.String(); after != before {
			t.Errorf("useCopy=%t: code changed:\n%s\nbecame\n%s", useCopy, before, after)
		}
		if in := b.Insts[1]; in.Src.Kind != rtl.OReg || in.Src.Reg != v(252) {
			t.Errorf("useCopy=%t: copy became %v, want v253 = v252", useCopy, &in)
		}
	}
}

func TestCSEStoreLoadForwarding(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b := f.NewBlock()
	b.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.Local(0), Src: rtl.R(v(0))},
		{Kind: rtl.Move, Dst: rtl.R(v(1)), Src: rtl.Local(0)}, // forwarded
		{Kind: rtl.Ret, Src: rtl.R(v(1))},
	}
	if !CommonSubexpressions(f, machine.M68020) {
		t.Fatal("expected forwarding")
	}
	if b.Insts[1].Src.Kind != rtl.OReg || b.Insts[1].Src.Reg != v(0) {
		t.Errorf("load not forwarded: %v", &b.Insts[1])
	}
}

func TestCSEInvalidationByStore(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b := f.NewBlock()
	b.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(1)), Src: rtl.Local(0)},
		{Kind: rtl.Move, Dst: rtl.Mem(v(9), 0), Src: rtl.Imm(5)}, // may alias
		{Kind: rtl.Move, Dst: rtl.R(v(2)), Src: rtl.Local(0)},    // must reload
		{Kind: rtl.Ret, Src: rtl.R(v(2))},
	}
	CommonSubexpressions(f, machine.M68020)
	if b.Insts[2].Src.Kind != rtl.OLocal {
		t.Errorf("load wrongly forwarded across a store: %v", &b.Insts[2])
	}
}

func TestCSEInvalidationByCall(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b := f.NewBlock()
	b.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(1)), Src: rtl.Global("g", 0)},
		{Kind: rtl.Call, Sym: "x", Dst: rtl.None()},
		{Kind: rtl.Move, Dst: rtl.R(v(2)), Src: rtl.Global("g", 0)},
		{Kind: rtl.Ret, Src: rtl.R(v(2))},
	}
	CommonSubexpressions(f, machine.M68020)
	if b.Insts[2].Src.Kind != rtl.OGlobal {
		t.Errorf("global load wrongly forwarded across a call: %v", &b.Insts[2])
	}
}

func TestCSERespectsMachineLegality(t *testing.T) {
	// On the SPARC a store's source must stay a register: constant
	// propagation into the store must be suppressed.
	f := cfg.NewFunc("t", 0)
	b := f.NewBlock()
	b.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(7)},
		{Kind: rtl.Move, Dst: rtl.Local(0), Src: rtl.R(v(0))},
		{Kind: rtl.Ret, Src: rtl.None()},
	}
	CommonSubexpressions(f, machine.SPARC)
	if b.Insts[1].Src.Kind != rtl.OReg {
		t.Errorf("SPARC store source became %v", b.Insts[1].Src.Kind)
	}
	// On the 68020 the same propagation is legal and wanted.
	f2 := cfg.NewFunc("t", 0)
	b2 := f2.NewBlock()
	b2.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(7)},
		{Kind: rtl.Move, Dst: rtl.Local(0), Src: rtl.R(v(0))},
		{Kind: rtl.Ret, Src: rtl.None()},
	}
	CommonSubexpressions(f2, machine.M68020)
	if b2.Insts[1].Src.Kind != rtl.OImm {
		t.Errorf("68020 store source should take the immediate, got %v", b2.Insts[1].Src.Kind)
	}
}

// loopFunc builds: entry; header(cmp i<n; br exit); body(x = a+b; i++;
// jmp header); exit(ret x) with a,b defined in the entry.
func loopFunc() (*cfg.Func, *cfg.Block) {
	f := cfg.NewFunc("t", 0)
	entry := f.NewBlock()
	header := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()
	i, n, a, bb, x := v(0), v(1), v(2), v(3), v(4)
	entry.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(i), Src: rtl.Imm(0)},
		{Kind: rtl.Move, Dst: rtl.R(n), Src: rtl.Imm(10)},
		{Kind: rtl.Move, Dst: rtl.R(a), Src: rtl.Imm(3)},
		{Kind: rtl.Move, Dst: rtl.R(bb), Src: rtl.Imm(4)},
	}
	header.Insts = []rtl.Inst{
		{Kind: rtl.Cmp, Src: rtl.R(i), Src2: rtl.R(n)},
		{Kind: rtl.Br, BrRel: rtl.Ge, Target: exit.Label},
	}
	body.Insts = []rtl.Inst{
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(x), Src: rtl.R(a), Src2: rtl.R(bb)},
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(i), Src: rtl.R(i), Src2: rtl.Imm(1)},
		{Kind: rtl.Jmp, Target: header.Label},
	}
	exit.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.R(i)}}
	return f, body
}

func TestCodeMotionHoistsInvariant(t *testing.T) {
	f, body := loopFunc()
	if !CodeMotion(f) {
		t.Fatalf("expected hoisting:\n%s", f)
	}
	for ii := range body.Insts {
		in := &body.Insts[ii]
		if in.Kind == rtl.Bin && in.Dst.Kind == rtl.OReg && in.Dst.Reg == v(4) {
			t.Errorf("invariant not hoisted:\n%s", f)
		}
	}
	// x must still be computed somewhere before the loop.
	found := false
	for _, b := range f.Blocks {
		for ii := range b.Insts {
			if b.Insts[ii].DefReg() == v(4) {
				found = true
			}
		}
	}
	if !found {
		t.Error("hoisted instruction lost")
	}
}

func TestCodeMotionKeepsVariant(t *testing.T) {
	f, body := loopFunc()
	// Make x depend on i: no longer invariant.
	body.Insts[0].Src2 = rtl.R(v(0))
	cp := countKind(f, rtl.Bin)
	CodeMotion(f)
	// The variant add must stay in the body.
	stays := false
	for ii := range body.Insts {
		if body.Insts[ii].DefReg() == v(4) {
			stays = true
		}
	}
	if !stays {
		t.Errorf("variant instruction hoisted:\n%s", f)
	}
	if countKind(f, rtl.Bin) != cp {
		t.Error("instruction count changed")
	}
}

func TestStrengthReduction(t *testing.T) {
	// for (i...) use i*8 -> becomes an addition chain.
	f := cfg.NewFunc("t", 0)
	entry := f.NewBlock()
	header := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()
	i, tt := v(0), v(1)
	entry.Insts = []rtl.Inst{{Kind: rtl.Move, Dst: rtl.R(i), Src: rtl.Imm(0)}}
	header.Insts = []rtl.Inst{
		{Kind: rtl.Cmp, Src: rtl.R(i), Src2: rtl.Imm(100)},
		{Kind: rtl.Br, BrRel: rtl.Ge, Target: exit.Label},
	}
	body.Insts = []rtl.Inst{
		{Kind: rtl.Bin, BOp: rtl.Mul, Dst: rtl.R(tt), Src: rtl.R(i), Src2: rtl.Imm(8)},
		{Kind: rtl.Move, Dst: rtl.Local(0), Src: rtl.R(tt)},
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(i), Src: rtl.R(i), Src2: rtl.Imm(1)},
		{Kind: rtl.Jmp, Target: header.Label},
	}
	exit.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	if !StrengthReduction(f) {
		t.Fatalf("expected reduction:\n%s", f)
	}
	// The multiplication must have left the loop body.
	for ii := range body.Insts {
		if body.Insts[ii].Kind == rtl.Bin && body.Insts[ii].BOp == rtl.Mul {
			t.Errorf("mul still in loop:\n%s", f)
		}
	}
}

func TestInstSelFoldsLoadCISC(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b := f.NewBlock()
	b.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Local(3)},
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(v(1)), Src: rtl.R(v(1)), Src2: rtl.R(v(0))},
		{Kind: rtl.Ret, Src: rtl.R(v(1))},
	}
	if !InstructionSelection(f, machine.M68020) {
		t.Fatalf("expected combine:\n%s", f)
	}
	if len(b.Insts) != 2 || !b.Insts[0].Src2.Equal(rtl.Local(3)) {
		t.Errorf("load not folded:\n%s", f)
	}
	// Same input on SPARC must NOT fold (load/store machine).
	f2 := cfg.NewFunc("t", 0)
	b2 := f2.NewBlock()
	b2.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Local(3)},
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(v(1)), Src: rtl.R(v(1)), Src2: rtl.R(v(0))},
		{Kind: rtl.Ret, Src: rtl.R(v(1))},
	}
	InstructionSelection(f2, machine.SPARC)
	if len(b2.Insts) != 3 {
		t.Errorf("SPARC wrongly folded a memory operand:\n%s", f2)
	}
}

func TestInstSelStoreCombine(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b := f.NewBlock()
	b.Insts = []rtl.Inst{
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(v(0)), Src: rtl.Local(2), Src2: rtl.Imm(1)},
		{Kind: rtl.Move, Dst: rtl.Local(2), Src: rtl.R(v(0))},
		{Kind: rtl.Ret, Src: rtl.None()},
	}
	if !InstructionSelection(f, machine.M68020) {
		t.Fatalf("expected RMW rebuild:\n%s", f)
	}
	if len(b.Insts) != 2 || !b.Insts[0].Dst.Equal(rtl.Local(2)) {
		t.Errorf("store not combined:\n%s", f)
	}
}

func TestInstSelAddressFold(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b := f.NewBlock()
	b.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.AddrLocal(4)},
		{Kind: rtl.Move, Dst: rtl.R(v(1)), Src: rtl.Mem(v(0), 2)},
		{Kind: rtl.Ret, Src: rtl.R(v(1))},
	}
	if !InstructionSelection(f, machine.M68020) {
		t.Fatalf("expected address fold:\n%s", f)
	}
	if !b.Insts[0].Src.Equal(rtl.Local(6)) {
		t.Errorf("M[&fp+4 + 2] should fold to L[fp+6]:\n%s", f)
	}
}

func TestInstSelRespectsMultipleUses(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b := f.NewBlock()
	b.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Local(3)},
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(v(1)), Src: rtl.R(v(0)), Src2: rtl.R(v(0))},
		{Kind: rtl.Ret, Src: rtl.R(v(1))},
	}
	InstructionSelection(f, machine.M68020)
	if len(b.Insts) != 3 {
		t.Errorf("two uses must not be folded (would double the load):\n%s", f)
	}
}

func TestPromoteLocals(t *testing.T) {
	f := cfg.NewFunc("t", 2)
	f.NLocals = 3
	f.ScalarLocals = []int64{0, 1, 2}
	b := f.NewBlock()
	b.Insts = []rtl.Inst{
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.Local(2), Src: rtl.Local(0), Src2: rtl.Local(1)},
		{Kind: rtl.Ret, Src: rtl.Local(2)},
	}
	if !PromoteLocals(f) {
		t.Fatal("expected promotion")
	}
	for _, in := range b.Insts[len(b.Insts)-2:] {
		for _, o := range []rtl.Operand{in.Dst, in.Src, in.Src2} {
			if o.Kind == rtl.OLocal {
				t.Errorf("unpromoted local in %v", &in)
			}
		}
	}
	// Two parameters need prologue copies.
	if b.Insts[0].Kind != rtl.Move || b.Insts[0].Src.Kind != rtl.OLocal {
		t.Errorf("missing parameter prologue:\n%s", f)
	}
}

func TestPromoteLocalsRespectsAddressTaken(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	f.NLocals = 2
	f.ScalarLocals = []int64{0, 1}
	b := f.NewBlock()
	b.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.AddrLocal(0)}, // &x escapes
		{Kind: rtl.Move, Dst: rtl.Local(0), Src: rtl.Imm(1)},
		{Kind: rtl.Move, Dst: rtl.Local(1), Src: rtl.Imm(2)},
		{Kind: rtl.Ret, Src: rtl.Local(0)},
	}
	PromoteLocals(f)
	if b.Insts[1].Dst.Kind != rtl.OLocal {
		t.Error("address-taken local was promoted")
	}
	if b.Insts[2].Dst.Kind == rtl.OLocal {
		t.Error("safe local was not promoted")
	}
}

func TestAllocateRegistersNoVRegsLeft(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b := f.NewBlock()
	// More simultaneously-live vregs than machine registers forces spills.
	n := machine.M68020.NumRegs + 6
	for i := 0; i < n; i++ {
		b.Insts = append(b.Insts, rtl.Inst{Kind: rtl.Move, Dst: rtl.R(v(i)), Src: rtl.Imm(int64(i))})
	}
	acc := v(n)
	b.Insts = append(b.Insts, rtl.Inst{Kind: rtl.Move, Dst: rtl.R(acc), Src: rtl.Imm(0)})
	for i := 0; i < n; i++ {
		b.Insts = append(b.Insts, rtl.Inst{
			Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(acc), Src: rtl.R(acc), Src2: rtl.R(v(i)),
		})
	}
	b.Insts = append(b.Insts, rtl.Inst{Kind: rtl.Ret, Src: rtl.R(acc)})
	AllocateRegisters(f, machine.M68020)
	for _, blk := range f.Blocks {
		for ii := range blk.Insts {
			in := &blk.Insts[ii]
			for _, o := range []rtl.Operand{in.Dst, in.Src, in.Src2} {
				if o.Kind == rtl.OReg && o.Reg.IsVirtual() ||
					o.Kind == rtl.OMem && (o.Reg.IsVirtual() || o.Index != rtl.RegNone && o.Index.IsVirtual()) {
					t.Fatalf("virtual register survived allocation: %v", in)
				}
			}
		}
	}
}

func TestDelaySlotFilling(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	// The add is independent of the branch: it can fill the slot.
	b0.Insts = []rtl.Inst{
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(3), Src: rtl.R(4), Src2: rtl.Imm(1)},
		{Kind: rtl.Cmp, Src: rtl.R(5), Src2: rtl.Imm(0)},
		{Kind: rtl.Br, BrRel: rtl.Lt, Target: b1.Label},
	}
	b1.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	filled, nops := FillDelaySlots(f, machine.SPARC)
	if filled != 1 {
		t.Errorf("filled = %d, want 1:\n%s", filled, f)
	}
	if nops != 1 { // the Ret has nothing to fill
		t.Errorf("nops = %d, want 1:\n%s", nops, f)
	}
	// The add must now sit after the branch.
	if b0.Insts[len(b0.Insts)-1].Kind != rtl.Bin {
		t.Errorf("slot not filled with the add:\n%s", f)
	}
}

func TestDelaySlotDependenceBlocksFill(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	// The add feeds the comparison: cannot move past it.
	b0.Insts = []rtl.Inst{
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(5), Src: rtl.R(4), Src2: rtl.Imm(1)},
		{Kind: rtl.Cmp, Src: rtl.R(5), Src2: rtl.Imm(0)},
		{Kind: rtl.Br, BrRel: rtl.Lt, Target: b1.Label},
	}
	b1.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	filled, nops := FillDelaySlots(f, machine.SPARC)
	if filled != 0 || nops != 2 {
		t.Errorf("filled=%d nops=%d, want 0/2:\n%s", filled, nops, f)
	}
}

func TestDelaySlotNoopOn68020(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b := f.NewBlock()
	b.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	filled, nops := FillDelaySlots(f, machine.M68020)
	if filled != 0 || nops != 0 || len(b.Insts) != 1 {
		t.Error("68020 has no delay slots")
	}
}

func TestLivenessAcrossLoop(t *testing.T) {
	f, _ := loopFunc()
	e := cfg.ComputeEdges(f)
	lv := ComputeLiveness(f, e)
	// n (v1) is live into the header from the entry.
	if !lv.In[1].Has(v(1)) {
		t.Errorf("n not live into header: %v", lv.In[1])
	}
	// x (v4) is not live into the entry.
	if lv.In[0].Has(v(4)) {
		t.Error("x live-in at entry")
	}
}

func TestPipelineishSanity(t *testing.T) {
	// Running every pass in sequence on the loop must terminate and keep
	// the code shape legal.
	f, _ := loopFunc()
	m := machine.M68020
	for i := 0; i < 5; i++ {
		BranchChaining(f)
		DeadCodeElimination(f)
		CommonSubexpressions(f, m)
		DeadVariableElimination(f)
		CodeMotion(f)
		StrengthReduction(f)
		FoldConstants(f)
		InstructionSelection(f, m)
		FoldBranches(f)
		MergeBlocks(f)
	}
	if !strings.Contains(f.String(), "PC = RT") {
		t.Error("return lost")
	}
}
