package replicate

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/rtl"
)

// Fixtures for the DUPS conditional-elimination tests.
const (
	// constDecidedSrc: both incoming edges of the test block L2 decide its
	// branch — L0 reaches it with v0 = 1 over an unconditional jump (taken:
	// 1 > 0), L1 falls in with v0 = 0 (not taken).
	constDecidedSrc = `func f(params=0, locals=0):
L0:
	v0 = #1
	PC = L2
L1:
	v0 = #0
L2:
	CC = v0 ? #0
	PC = CC > 0, L4
L3:
	v1 = #7
	PC = RT, rv=v1
L4:
	v1 = #9
	PC = RT, rv=v1
`
	// domDecidedSrc: L0's own test dominates L1's — on the taken edge
	// (v0 < v1) the query "v0 >= v1" is disjoint, so L1's branch is decided
	// not-taken without knowing either value.
	domDecidedSrc = `func g(params=2, locals=2):
L0:
	v0 = L[fp+0]
	v1 = L[fp+1]
	CC = v0 ? v1
	PC = CC < 0, L2
L1:
	PC = RT, rv=v0
L2:
	CC = v0 ? v1
	PC = CC >= 0, L4
L3:
	PC = RT, rv=v1
L4:
	v0 = v0 + v1
	PC = RT, rv=v0
`
	// undecidedSrc: the test block's operands are unknown on every edge and
	// no dominating test exists — conditional elimination must do nothing.
	undecidedSrc = `func h(params=1, locals=1):
L0:
	v0 = L[fp+0]
L1:
	CC = v0 ? #3
	PC = CC > 0, L3
L2:
	PC = RT, rv=v0
L3:
	v0 = v0 + #1
	PC = RT, rv=v0
`
)

func mustParse(t *testing.T, src string) *cfg.Func {
	t.Helper()
	f, err := cfg.ParseFunc(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCondElimConstantEdges folds both incoming edges of a test block whose
// comparison is constant on each path: the unconditional-jump predecessor
// gets the folded copy as its new fall-through (killing the jump too), the
// fall-through predecessor gets it spliced in between. After cleanup no
// conditional branch survives on any reachable path.
func TestCondElimConstantEdges(t *testing.T) {
	f := mustParse(t, constDecidedSrc)
	res := condElim(f, Options{})
	if !res.Changed || res.BranchesFolded != 2 {
		t.Fatalf("want 2 folds, got %+v:\n%s", res, f)
	}
	cfg.RemoveUnreachable(f)
	if n := countBranches(f); n != 0 {
		t.Errorf("want 0 reachable conditional branches, got %d:\n%s", n, f)
	}
	if err := cfg.Validate(f, false); err != nil {
		t.Fatal(err)
	}
	if !cfg.IsReducible(f) {
		t.Fatalf("fold broke reducibility:\n%s", f)
	}
}

// TestCondElimDominatingTest folds a branch whose outcome is implied by the
// predecessor's own test on the same operands, with no constant in sight.
func TestCondElimDominatingTest(t *testing.T) {
	f := mustParse(t, domDecidedSrc)
	res := condElim(f, Options{})
	if !res.Changed || res.BranchesFolded == 0 {
		t.Fatalf("want at least one fold, got %+v:\n%s", res, f)
	}
	if err := cfg.Validate(f, false); err != nil {
		t.Fatal(err)
	}
	// The taken edge from L0 must now reach a folded copy that transfers
	// straight to the not-taken destination (the original L3 epilogue).
	br := f.Blocks[0].Term()
	if br == nil || br.Kind != rtl.Br {
		t.Fatalf("entry branch gone:\n%s", f)
	}
	nb := f.BlockByLabel(br.Target)
	if nb == nil {
		t.Fatalf("entry branch targets nothing:\n%s", f)
	}
	if tm := nb.Term(); tm == nil || tm.Kind == rtl.Br {
		t.Errorf("folded copy still ends in a conditional branch:\n%s", f)
	}
}

// TestCondElimUndecided pins the conservative side: no constants, no
// dominating test, no folds.
func TestCondElimUndecided(t *testing.T) {
	f := mustParse(t, undecidedSrc)
	before := f.String()
	res := condElim(f, Options{})
	if res.Changed || res.BranchesFolded != 0 {
		t.Fatalf("expected no folds, got %+v:\n%s", res, f)
	}
	if got := f.String(); got != before {
		t.Errorf("function mutated without folds:\n%s", got)
	}
}

// TestCondElimCallInvalidatesLocals pins the aliasing rule: a call may
// write any addressable frame slot, so a local-operand comparison decided
// before the call must not be considered decided after it.
func TestCondElimCallInvalidatesLocals(t *testing.T) {
	src := `func k(params=0, locals=1):
L0:
	L[fp+0] = #1
	v0 = call f0
	PC = L2
L1:
	v1 = #0
L2:
	CC = L[fp+0] ? #0
	PC = CC > 0, L4
L3:
	PC = RT, rv=#7
L4:
	PC = RT, rv=#9
`
	f := mustParse(t, src)
	res := condElim(f, Options{})
	if res.BranchesFolded != 0 {
		t.Fatalf("folded through a call's potential frame write: %+v:\n%s", res, f)
	}
}

// TestDupsRunsJumpsLeg pins that DUPS subsumes JUMPS: on the paper's Table
// 1 shape (no decidable branch) it performs exactly the JUMPS replication.
func TestDupsRunsJumpsLeg(t *testing.T) {
	fd := mustParse(t, table1Src)
	fj := mustParse(t, table1Src)
	rd := DUPS(fd, Options{})
	rj := JUMPS(fj, Options{})
	if !rd.Changed || rd.Replications != rj.Replications {
		t.Fatalf("DUPS jumps leg diverged: DUPS %+v, JUMPS %+v", rd, rj)
	}
	if got, want := fd.String(), fj.String(); got != want {
		t.Errorf("DUPS output differs from JUMPS on an undecidable function:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestForceRollbackByteIdentical is the undo-log acceptance test: with the
// ForceRollback fault injection every guarded duplication must be rolled
// back to a byte-identical function — text, label counter and block count —
// for the conditional-elimination, JUMPS splice and LOOPS rotation paths.
func TestForceRollbackByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		run  func(f *cfg.Func, o Options) Result
	}{
		{"condElim/const", constDecidedSrc, condElim},
		{"condElim/dom", domDecidedSrc, condElim},
		{"jumps/table1", table1Src, JUMPS},
		{"jumps/table2", table2Src, JUMPS},
		{"dups/const", constDecidedSrc, DUPS},
		{"loops/while", whileShapeSrc, LOOPS},
		{"loops/for", forShapeSrc, LOOPS},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := mustParse(t, tc.src)
			before := f.String()
			mark := f.LabelMark()
			blocks := len(f.Blocks)
			res := tc.run(f, Options{ForceRollback: true})
			if res.Replications != 0 || res.BranchesFolded != 0 {
				t.Fatalf("applied work under ForceRollback: %+v", res)
			}
			if res.Rollbacks == 0 {
				t.Fatalf("no rollbacks recorded — fixture exercised nothing: %+v", res)
			}
			if got := f.String(); got != before {
				t.Errorf("rollback not byte-identical:\ngot:\n%s\nwant:\n%s", got, before)
			}
			if got := f.LabelMark(); got != mark {
				t.Errorf("label counter not rewound: got %v, want %v", got, mark)
			}
			if got := len(f.Blocks); got != blocks {
				t.Errorf("block count changed: got %d, want %d", got, blocks)
			}
		})
	}
}

// TestProfitModels pins the two profitability metrics on a known shape.
func TestProfitModels(t *testing.T) {
	f := mustParse(t, constDecidedSrc)
	if got := CountJumps(f); got != 1 {
		t.Errorf("CountJumps = %d, want 1", got)
	}
	// Both incoming edges of L2 are decided (constant on each path).
	if got := countDecidedEdges(f); got != 2 {
		t.Errorf("countDecidedEdges = %d, want 2", got)
	}
}

// countBranches returns the static number of conditional branches.
func countBranches(f *cfg.Func) int {
	n := 0
	for _, b := range f.Blocks {
		for ii := range b.Insts {
			if b.Insts[ii].Kind == rtl.Br {
				n++
			}
		}
	}
	return n
}
