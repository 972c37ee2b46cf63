package replicate

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/obs"
	"repro/internal/rtl"
)

func v(i int) rtl.Reg { return rtl.VRegBase + rtl.Reg(i) }

func countJumpsIn(f *cfg.Func) int { return countJumps(f) }

// runnableSanity checks structural invariants after replication: every
// branch target resolves, the graph stays reducible, and exactly the
// expected entry block leads.
func runnableSanity(t *testing.T, f *cfg.Func) {
	t.Helper()
	for _, b := range f.Blocks {
		for ii := range b.Insts {
			in := &b.Insts[ii]
			switch in.Kind {
			case rtl.Br, rtl.Jmp:
				if f.BlockByLabel(in.Target) == nil {
					t.Fatalf("dangling target %v in:\n%s", in.Target, f)
				}
			case rtl.IJmp:
				for _, l := range in.Table {
					if f.BlockByLabel(l) == nil {
						t.Fatalf("dangling table target %v in:\n%s", l, f)
					}
				}
			}
		}
	}
	if !cfg.IsReducible(f) {
		t.Fatalf("irreducible graph after replication:\n%s", f)
	}
}

// TestPathMatrixShortest verifies the Floyd–Warshall distances use RTL
// counts of the traversed blocks.
func TestPathMatrixShortest(t *testing.T) {
	// b0 -> b1 (3 RTLs) -> b3 and b0 -> b2 (1 RTL) -> b3.
	f := cfg.NewFunc("t", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	b0.Insts = []rtl.Inst{
		{Kind: rtl.Cmp, Src: rtl.R(v(0)), Src2: rtl.Imm(0)},
		{Kind: rtl.Br, BrRel: rtl.Lt, Target: b2.Label},
	}
	b1.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(1)), Src: rtl.Imm(1)},
		{Kind: rtl.Move, Dst: rtl.R(v(2)), Src: rtl.Imm(2)},
		{Kind: rtl.Jmp, Target: b3.Label},
	}
	b2.Insts = []rtl.Inst{{Kind: rtl.Move, Dst: rtl.R(v(1)), Src: rtl.Imm(3)}}
	b3.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	e := cfg.ComputeEdges(f)
	for _, fd := range finders {
		m, name := fd.fn(snapshotGraph(f, e)), fd.name
		// Shortest b0..b3 goes through b2: 2 + 1 + 1 RTLs.
		if d := m.dist(0, 3); d != 4 {
			t.Errorf("%s: dist(0, 3) = %d, want 4", name, d)
		}
		p := m.path(0, 3)
		if len(p) != 3 || p[1] != 2 {
			t.Errorf("%s: path = %v, want [0 2 3]", name, p)
		}
		// Self distance is not defined (non-reflexive; the graph is acyclic
		// so no cycle through b0 exists either).
		if m.dist(0, 0) != inf {
			t.Errorf("%s: self-reflexive transition recorded", name)
		}
	}
}

func TestPathMatrixExcludesIndirect(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b0.Insts = []rtl.Inst{{Kind: rtl.IJmp, Src: rtl.R(v(0)), Lo: 0, Table: []rtl.Label{b1.Label, b2.Label}}}
	b1.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	b2.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	e := cfg.ComputeEdges(f)
	for _, fd := range finders {
		m, name := fd.fn(snapshotGraph(f, e)), fd.name
		if m.dist(0, 1) != inf || m.dist(0, 2) != inf {
			t.Errorf("%s: paths must not traverse indirect jumps", name)
		}
	}
}

// TestTable2Return: a jump to a return-terminated block is replaced by a
// copy of that block (favoring returns), as in the paper's Table 2.
func TestTable2Return(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b0 := f.NewBlock() // then-part, ends with jump over else
	b1 := f.NewBlock() // else-part
	b2 := f.NewBlock() // join + return
	b0.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(1)},
		{Kind: rtl.Jmp, Target: b2.Label},
	}
	b1.Insts = []rtl.Inst{{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(2)}}
	b2.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.R(v(0))}}
	res := JUMPS(f, Options{})
	if !res.Changed {
		t.Fatalf("expected replication:\n%s", f)
	}
	// The Result must carry the replication counters: one jump replaced by
	// a copy of the 1-RTL return block, nothing rolled back or deleted.
	if res.Replications != 1 || res.RTLsCopied != 1 {
		t.Errorf("counters = %+v, want 1 replication of 1 RTL", res)
	}
	if res.Rollbacks != 0 || res.JumpsDeleted != 0 {
		t.Errorf("unexpected rollback/deletion counters: %+v", res)
	}
	runnableSanity(t, f)
	if countJumpsIn(f) != 0 {
		t.Errorf("jump not eliminated:\n%s", f)
	}
	// Both paths should now end in their own return.
	rets := 0
	for _, b := range f.Blocks {
		if tm := b.Term(); tm != nil && tm.Kind == rtl.Ret {
			rets++
		}
	}
	if rets < 2 {
		t.Errorf("paths not separated (%d returns):\n%s", rets, f)
	}
}

// buildWhileLoop returns the canonical while shape with its latch jump:
// entry, header (test), body... latch jmp header, exit(ret).
func buildWhileLoop() (*cfg.Func, *cfg.Block, *cfg.Block) {
	f := cfg.NewFunc("t", 0)
	entry := f.NewBlock()
	header := f.NewBlock()
	body := f.NewBlock()
	exit := f.NewBlock()
	i := v(0)
	entry.Insts = []rtl.Inst{{Kind: rtl.Move, Dst: rtl.R(i), Src: rtl.Imm(0)}}
	header.Insts = []rtl.Inst{
		{Kind: rtl.Cmp, Src: rtl.R(i), Src2: rtl.Imm(10)},
		{Kind: rtl.Br, BrRel: rtl.Ge, Target: exit.Label},
	}
	body.Insts = []rtl.Inst{
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(i), Src: rtl.R(i), Src2: rtl.Imm(1)},
		{Kind: rtl.Jmp, Target: header.Label},
	}
	exit.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.R(i)}}
	return f, header, body
}

// TestRotationEmergesFromJUMPS: the latch jump of a while loop is replaced
// by a reversed copy of the test — loop rotation as a special case.
func TestRotationEmergesFromJUMPS(t *testing.T) {
	f, _, body := buildWhileLoop()
	if !JUMPS(f, Options{}).Changed {
		t.Fatalf("expected replication:\n%s", f)
	}
	runnableSanity(t, f)
	if countJumpsIn(f) != 0 {
		t.Errorf("latch jump survived:\n%s", f)
	}
	// The body's copy of the test must branch backwards with the reversed
	// relation (continue while i < 10).
	next := f.Blocks[body.Index+1]
	tm := next.Term()
	if tm == nil || tm.Kind != rtl.Br || tm.BrRel != rtl.Lt {
		t.Errorf("expected reversed branch after body:\n%s", f)
	}
}

// TestLOOPSRotation: the restricted LOOPS pass does the same on the
// conventional shapes.
func TestLOOPSRotation(t *testing.T) {
	f, _, _ := buildWhileLoop()
	res := LOOPS(f, Options{})
	if !res.Changed {
		t.Fatalf("expected rotation:\n%s", f)
	}
	// One rotation copying the 2-RTL test (Cmp + Br), no rollbacks.
	if res.Replications != 1 || res.RTLsCopied != 2 || res.Rollbacks != 0 {
		t.Errorf("counters = %+v, want 1 rotation of 2 RTLs", res)
	}
	runnableSanity(t, f)
	if countJumpsIn(f) != 0 {
		t.Errorf("LOOPS left the latch jump:\n%s", f)
	}
}

// TestLOOPSKeepsImpureTests: a loop whose test contains a call (the
// getchar idiom) is out of scope for conventional rotation.
func TestLOOPSKeepsImpureTests(t *testing.T) {
	f, header, _ := buildWhileLoop()
	header.Insts = append([]rtl.Inst{{Kind: rtl.Call, Sym: "getchar", Dst: rtl.R(v(0))}}, header.Insts...)
	if LOOPS(f, Options{}).Changed {
		t.Errorf("LOOPS must skip impure tests:\n%s", f)
	}
}

// TestFigure1LoopReplication reproduces the paper's Figure 1: a jump into
// a region that reaches a natural loop; without copying the whole loop it
// would gain a second entry (irreducible), so the bare candidate is rolled
// back and the loop-completed one applied.
func TestFigure1LoopReplication(t *testing.T) {
	// Layout: b0(entry: br b2) b1(jmp b4) b2..b3 b4(pre) b5(header)
	// b6(latch: br b5) b7(ret). The jump b1->b4 reaches the loop {5,6}.
	f := cfg.NewFunc("t", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b4 := f.NewBlock()
	b5 := f.NewBlock() // loop header
	b6 := f.NewBlock() // latch, conditional back edge
	b7 := f.NewBlock()
	i := v(0)
	b0.Insts = []rtl.Inst{
		{Kind: rtl.Cmp, Src: rtl.R(i), Src2: rtl.Imm(0)},
		{Kind: rtl.Br, BrRel: rtl.Lt, Target: b2.Label},
	}
	b1.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(1)), Src: rtl.Imm(1)},
		{Kind: rtl.Jmp, Target: b4.Label},
	}
	b2.Insts = []rtl.Inst{{Kind: rtl.Move, Dst: rtl.R(v(1)), Src: rtl.Imm(2)}}
	b4.Insts = []rtl.Inst{{Kind: rtl.Move, Dst: rtl.R(i), Src: rtl.Imm(0)}}
	b5.Insts = []rtl.Inst{
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(i), Src: rtl.R(i), Src2: rtl.Imm(1)},
	}
	b6.Insts = []rtl.Inst{
		{Kind: rtl.Cmp, Src: rtl.R(i), Src2: rtl.Imm(10)},
		{Kind: rtl.Br, BrRel: rtl.Lt, Target: b5.Label},
	}
	b7.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.R(i)}}
	res := JUMPS(f, Options{})
	if !res.Changed {
		t.Fatalf("expected replication:\n%s", f)
	}
	// The applied sequence pulls the whole natural loop in; the counters
	// must record the copy volume.
	if res.Replications < 1 || res.RTLsCopied == 0 {
		t.Errorf("applied replication not counted: %+v", res)
	}
	runnableSanity(t, f)
	// The original loop must have exactly one header still: count blocks
	// containing the add; the loop body should have been copied (2 copies).
	adds := 0
	for _, b := range f.Blocks {
		for ii := range b.Insts {
			if b.Insts[ii].Kind == rtl.Bin {
				adds++
			}
		}
	}
	if adds < 2 {
		t.Errorf("loop body not replicated (step 3):\n%s", f)
	}
}

// TestFigure1NoCompletionLeavesJump: with step 3 disabled, the same shape
// must either roll back (jump survives) or still be reducible — never
// irreducible.
func TestFigure1NoCompletionStaysReducible(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b4 := f.NewBlock()
	b5 := f.NewBlock()
	b6 := f.NewBlock()
	b7 := f.NewBlock()
	i := v(0)
	b0.Insts = []rtl.Inst{
		{Kind: rtl.Cmp, Src: rtl.R(i), Src2: rtl.Imm(0)},
		{Kind: rtl.Br, BrRel: rtl.Lt, Target: b2.Label},
	}
	b1.Insts = []rtl.Inst{{Kind: rtl.Jmp, Target: b4.Label}}
	b2.Insts = []rtl.Inst{{Kind: rtl.Move, Dst: rtl.R(v(1)), Src: rtl.Imm(2)}}
	b4.Insts = []rtl.Inst{{Kind: rtl.Move, Dst: rtl.R(i), Src: rtl.Imm(0)}}
	b5.Insts = []rtl.Inst{{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(i), Src: rtl.R(i), Src2: rtl.Imm(1)}}
	b6.Insts = []rtl.Inst{
		{Kind: rtl.Cmp, Src: rtl.R(i), Src2: rtl.Imm(10)},
		{Kind: rtl.Br, BrRel: rtl.Lt, Target: b5.Label},
	}
	b7.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.R(i)}}
	JUMPS(f, Options{NoLoopCompletion: true})
	runnableSanity(t, f)
}

// TestMaxSeqRTLsCap: a tight cap rejects candidates and leaves the jump.
func TestMaxSeqRTLsCap(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b0.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(1)},
		{Kind: rtl.Jmp, Target: b2.Label},
	}
	b1.Insts = []rtl.Inst{{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(2)}}
	b2.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(1)), Src: rtl.Imm(3)},
		{Kind: rtl.Move, Dst: rtl.R(v(2)), Src: rtl.Imm(4)},
		{Kind: rtl.Move, Dst: rtl.R(v(3)), Src: rtl.Imm(5)},
		{Kind: rtl.Ret, Src: rtl.R(v(0))},
	}
	if JUMPS(f, Options{MaxSeqRTLs: 2}).Changed {
		t.Errorf("cap of 2 should reject the 4-RTL sequence:\n%s", f)
	}
	if !JUMPS(f, Options{MaxSeqRTLs: 10}).Changed {
		t.Error("cap of 10 should allow it")
	}
}

// TestIndirectTermination: the §6 extension lets a sequence end at an
// indirect jump; without it the jump survives.
func TestIndirectTermination(t *testing.T) {
	build := func() *cfg.Func {
		f := cfg.NewFunc("t", 0)
		b0 := f.NewBlock()
		b1 := f.NewBlock()
		b2 := f.NewBlock() // ends in IJmp; no return anywhere reachable
		b3 := f.NewBlock()
		b4 := f.NewBlock()
		b0.Insts = []rtl.Inst{
			{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(0)},
			{Kind: rtl.Jmp, Target: b2.Label},
		}
		b1.Insts = []rtl.Inst{{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(1)}}
		b2.Insts = []rtl.Inst{
			{Kind: rtl.Move, Dst: rtl.R(v(1)), Src: rtl.Imm(7)},
			{Kind: rtl.IJmp, Src: rtl.R(v(0)), Lo: 0, Table: []rtl.Label{b3.Label, b4.Label}},
		}
		b3.Insts = []rtl.Inst{{Kind: rtl.Jmp, Target: b3.Label}} // infinite
		b4.Insts = []rtl.Inst{{Kind: rtl.Jmp, Target: b4.Label}} // infinite
		return f
	}
	f := build()
	JUMPS(f, Options{})
	// b0's jump to the IJmp block cannot be replaced without the
	// extension (no return-terminated path; fall-through path would have
	// to traverse the indirect jump).
	if b := f.Blocks[0]; b.Term() == nil || b.Term().Kind != rtl.Jmp {
		t.Errorf("jump should survive without AllowIndirect:\n%s", f)
	}
	f2 := build()
	JUMPS(f2, Options{AllowIndirect: true})
	if b := f2.Blocks[0]; b.Term() != nil && b.Term().Kind == rtl.Jmp {
		t.Errorf("jump should be replaced with AllowIndirect:\n%s", f2)
	}
	runnableSanity(t, f2)
}

// TestInfiniteLoopSkipped: a jump into an infinite loop offers no
// replacement (no return, no reconnection) and must be left alone.
func TestInfiniteLoopSkipped(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b0.Insts = []rtl.Inst{{Kind: rtl.Jmp, Target: b1.Label}}
	b1.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(1)},
		{Kind: rtl.Jmp, Target: b1.Label},
	}
	if JUMPS(f, Options{}).Changed {
		// Deleting a jump-to-next is permitted; anything beyond must not
		// corrupt the graph.
		runnableSanity(t, f)
	}
	// The self-loop must still exist.
	found := false
	for _, b := range f.Blocks {
		if tm := b.Term(); tm != nil && tm.Kind == rtl.Jmp && tm.Target == b.Label {
			found = true
		}
	}
	if !found {
		t.Errorf("infinite loop destroyed:\n%s", f)
	}
}

// TestJumpToNextDeleted: the trivial case is handled by deletion, not
// replication.
func TestJumpToNextDeleted(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b0.Insts = []rtl.Inst{{Kind: rtl.Jmp, Target: b1.Label}}
	b1.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	res := JUMPS(f, Options{})
	if !res.Changed {
		t.Fatal("expected the jump to be deleted")
	}
	if res.JumpsDeleted != 1 || res.Replications != 0 || res.RTLsCopied != 0 {
		t.Errorf("deletion must be counted as JumpsDeleted, not a replication: %+v", res)
	}
	if f.NumRTLs() != 1 {
		t.Errorf("expected only the return to remain:\n%s", f)
	}
}

// TestHeuristics: favoring returns vs loops pick different sequences; both
// remain correct (structural sanity) and both eliminate the jump.
func TestHeuristics(t *testing.T) {
	for _, h := range []Heuristic{HeurShortest, HeurReturns, HeurLoops} {
		f, _, _ := buildWhileLoop()
		JUMPS(f, Options{Heuristic: h})
		runnableSanity(t, f)
		if countJumpsIn(f) != 0 {
			t.Errorf("heuristic %d left jumps:\n%s", h, f)
		}
	}
}

// TestGrowthCap: MaxFuncRTLs stops replication.
func TestGrowthCap(t *testing.T) {
	f, _, _ := buildWhileLoop()
	before := f.NumRTLs()
	JUMPS(f, Options{MaxFuncRTLs: 1}) // already over budget: nothing happens
	if f.NumRTLs() != before {
		t.Error("growth cap ignored")
	}
}

// TestStep5Redirect reproduces Figure 2's concern: replication initiated
// inside a loop redirects the conditional branches of uncopied loop blocks
// to the copies, and the result stays reducible.
func TestStep5Redirect(t *testing.T) {
	// Unstructured loop: b1 <- b3 jump; b2 branches conditionally to b1.
	f := cfg.NewFunc("t", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b3 := f.NewBlock()
	b4 := f.NewBlock()
	i := v(0)
	b0.Insts = []rtl.Inst{{Kind: rtl.Move, Dst: rtl.R(i), Src: rtl.Imm(0)}}
	b1.Insts = []rtl.Inst{{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(i), Src: rtl.R(i), Src2: rtl.Imm(1)}}
	b2.Insts = []rtl.Inst{
		{Kind: rtl.Cmp, Src: rtl.R(i), Src2: rtl.Imm(100)},
		{Kind: rtl.Br, BrRel: rtl.Ge, Target: b4.Label},
	}
	b3.Insts = []rtl.Inst{{Kind: rtl.Jmp, Target: b1.Label}}
	b4.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.R(i)}}
	JUMPS(f, Options{})
	runnableSanity(t, f)
	if countJumpsIn(f) != 0 {
		t.Errorf("back-edge jump survived:\n%s", f)
	}
}

// TestNoCandidateLeavesFunctionUntouched: a jump into an isolated infinite
// loop (no return path, no reconnection path) has no candidates; after
// attempting it the function must be byte-identical.
func TestNoCandidateLeavesFunctionUntouched(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock()
	b2 := f.NewBlock()
	b0.Insts = []rtl.Inst{{Kind: rtl.Jmp, Target: b2.Label}}
	b1.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	b2.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(1)},
		{Kind: rtl.Jmp, Target: b2.Label},
	}
	before := f.String()
	if JUMPS(f, Options{}).Changed {
		t.Error("nothing should be replaceable")
	}
	if f.String() != before {
		t.Errorf("function mutated:\nbefore:\n%s\nafter:\n%s", before, f.String())
	}
}

// TestRollbackCountedAndLogged reproduces the paper's Figure-1 dynamics in
// miniature: the bare favoring-returns candidate copies the loop header but
// not the latch, creating a second loop entry; step 6 rolls it back and the
// loop-completed candidate applies. Both sides must show up in the Result
// counters and in the decision log, with the rolled-back candidate marked.
func TestRollbackCountedAndLogged(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b0 := f.NewBlock()
	b1 := f.NewBlock() // jmp b3 (the jump under test)
	b2 := f.NewBlock()
	b3 := f.NewBlock() // preheader
	b4 := f.NewBlock() // loop header, exits to b6
	b5 := f.NewBlock() // latch, back edge to b4
	b6 := f.NewBlock() // return
	i := v(0)
	b0.Insts = []rtl.Inst{
		{Kind: rtl.Cmp, Src: rtl.R(i), Src2: rtl.Imm(0)},
		{Kind: rtl.Br, BrRel: rtl.Lt, Target: b2.Label},
	}
	b1.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(1)), Src: rtl.Imm(1)},
		{Kind: rtl.Jmp, Target: b3.Label},
	}
	b2.Insts = []rtl.Inst{{Kind: rtl.Move, Dst: rtl.R(v(1)), Src: rtl.Imm(2)}}
	b3.Insts = []rtl.Inst{{Kind: rtl.Move, Dst: rtl.R(i), Src: rtl.Imm(0)}}
	b4.Insts = []rtl.Inst{
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(i), Src: rtl.R(i), Src2: rtl.Imm(1)},
		{Kind: rtl.Cmp, Src: rtl.R(i), Src2: rtl.Imm(10)},
		{Kind: rtl.Br, BrRel: rtl.Ge, Target: b6.Label},
	}
	b5.Insts = []rtl.Inst{
		{Kind: rtl.Cmp, Src: rtl.R(i), Src2: rtl.Imm(5)},
		{Kind: rtl.Br, BrRel: rtl.Lt, Target: b4.Label},
	}
	b6.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.R(i)}}

	col := &obs.Collector{}
	res := JUMPS(f, Options{Tracer: col})
	runnableSanity(t, f)
	if !res.Changed || res.Replications != 1 || res.Rollbacks != 1 {
		t.Fatalf("want 1 replication after 1 rollback, got %+v:\n%s", res, f)
	}
	if res.RTLsCopied == 0 {
		t.Errorf("RTLs copied not counted: %+v", res)
	}

	var decisions []*obs.Event
	for _, ev := range col.Events() {
		if ev.Type == obs.EvDecision {
			decisions = append(decisions, ev)
		}
	}
	if len(decisions) != 1 {
		t.Fatalf("want 1 decision event, got %d", len(decisions))
	}
	d := decisions[0]
	if d.Outcome != obs.OutApplied || len(d.Candidates) < 2 {
		t.Fatalf("decision = %+v, want applied with >= 2 candidates", d)
	}
	first, second := d.Candidates[0], d.Candidates[1]
	if !first.RolledBack || first.Applied {
		t.Errorf("first candidate should be marked rolled back: %+v", first)
	}
	if !second.Applied || !second.LoopCompleted {
		t.Errorf("second candidate should be the applied loop-completed one: %+v", second)
	}
	if first.RTLs == 0 || second.RTLs <= first.RTLs {
		t.Errorf("candidate costs missing or unordered: %+v vs %+v", first, second)
	}
}

// TestDecisionLogBothKinds: a rotated while loop offers both a
// favoring-returns and a favoring-loops candidate; the decision event must
// record both with their costs.
func TestDecisionLogBothKinds(t *testing.T) {
	f, _, _ := buildWhileLoop()
	col := &obs.Collector{}
	JUMPS(f, Options{Tracer: col})
	kinds := map[string]bool{}
	for _, ev := range col.Events() {
		if ev.Type != obs.EvDecision {
			continue
		}
		for _, c := range ev.Candidates {
			if c.RTLs <= 0 {
				t.Errorf("candidate without cost: %+v", c)
			}
			kinds[c.Kind] = true
		}
	}
	if !kinds[obs.KindReturns] || !kinds[obs.KindLoops] {
		t.Errorf("want both candidate kinds in the log, got %v", kinds)
	}
}
