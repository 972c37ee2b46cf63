package verify_test

import (
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/pipeline"
	"repro/internal/rtl"
	"repro/internal/verify"
)

// v returns the operand form of virtual register n.
func v(n int) rtl.Operand { return rtl.R(rtl.VRegBase + rtl.Reg(n)) }

// TestRules exercises every verifier rule with a minimal hand-built
// offending function and asserts both the rule id and the blamed block.
func TestRules(t *testing.T) {
	cases := []struct {
		name      string
		opts      verify.Options
		build     func(f *cfg.Func)
		wantRule  verify.Rule
		wantBlock string
	}{
		{
			name: "structure/dangling-target",
			build: func(f *cfg.Func) {
				b := f.NewBlock()
				b.Insts = []rtl.Inst{{Kind: rtl.Jmp, Target: 99}}
			},
			wantRule:  verify.RuleStructure,
			wantBlock: "",
		},
		{
			name: "unreachable-block",
			build: func(f *cfg.Func) {
				b0 := f.NewBlock()
				b0.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
				b1 := f.NewBlock()
				b1.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
			},
			wantRule:  verify.RuleUnreachable,
			wantBlock: "L1",
		},
		{
			name: "cc-pairing/branch-without-compare",
			build: func(f *cfg.Func) {
				b0 := f.NewBlock()
				b1 := f.NewBlock()
				b0.Insts = []rtl.Inst{{Kind: rtl.Br, BrRel: rtl.Eq, Target: b1.Label}}
				b1.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
			},
			wantRule:  verify.RuleCCPairing,
			wantBlock: "L0",
		},
		{
			name: "cc-pairing/call-clobbers-cc",
			build: func(f *cfg.Func) {
				b0 := f.NewBlock()
				b1 := f.NewBlock()
				b0.Insts = []rtl.Inst{
					{Kind: rtl.Cmp, Src: rtl.Imm(1), Src2: rtl.Imm(2)},
					{Kind: rtl.Call, Sym: "g", Dst: rtl.None()},
					{Kind: rtl.Br, BrRel: rtl.Eq, Target: b1.Label},
				}
				b1.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
			},
			wantRule:  verify.RuleCCPairing,
			wantBlock: "L0",
		},
		{
			name: "delay-slot/annul-before-filling",
			build: func(f *cfg.Func) {
				b0 := f.NewBlock()
				b1 := f.NewBlock()
				b0.Insts = []rtl.Inst{
					{Kind: rtl.Cmp, Src: rtl.Imm(1), Src2: rtl.Imm(2)},
					{Kind: rtl.Br, BrRel: rtl.Eq, Target: b1.Label, Annul: true},
				}
				b1.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
			},
			wantRule:  verify.RuleDelaySlot,
			wantBlock: "L0",
		},
		{
			name: "delay-slot/annul-on-non-branch",
			build: func(f *cfg.Func) {
				b := f.NewBlock()
				b.Insts = []rtl.Inst{
					{Kind: rtl.Move, Dst: rtl.R(rtl.RV), Src: rtl.Imm(1), Annul: true},
					{Kind: rtl.Ret, Src: rtl.R(rtl.RV)},
				}
			},
			wantRule:  verify.RuleDelaySlot,
			wantBlock: "L0",
		},
		{
			name: "delay-slot/illegal-slot-instruction",
			opts: verify.Options{DelaySlots: true},
			build: func(f *cfg.Func) {
				b := f.NewBlock()
				b.Insts = []rtl.Inst{
					{Kind: rtl.Ret, Src: rtl.None()},
					{Kind: rtl.Cmp, Src: rtl.Imm(1), Src2: rtl.Imm(2)},
				}
			},
			wantRule:  verify.RuleDelaySlot,
			wantBlock: "L0",
		},
		{
			name: "virtual-after-regalloc",
			opts: verify.Options{PostRegalloc: true},
			build: func(f *cfg.Func) {
				b := f.NewBlock()
				b.Insts = []rtl.Inst{
					{Kind: rtl.Move, Dst: v(0), Src: rtl.Imm(1)},
					{Kind: rtl.Ret, Src: rtl.None()},
				}
			},
			wantRule:  verify.RuleVirtualReg,
			wantBlock: "L0",
		},
		{
			name: "dead-reg-use",
			opts: verify.Options{PostRegalloc: true},
			build: func(f *cfg.Func) {
				b := f.NewBlock()
				// r3 is read but never defined: live at the entry, the
				// signature of the PR 4 spill-victim coloring bug.
				b.Insts = []rtl.Inst{
					{Kind: rtl.Move, Dst: rtl.R(rtl.RV), Src: rtl.R(rtl.FirstAlloc)},
					{Kind: rtl.Ret, Src: rtl.R(rtl.RV)},
				}
			},
			wantRule:  verify.RuleDeadReg,
			wantBlock: "L0",
		},
		{
			name: "use-before-def",
			build: func(f *cfg.Func) {
				b0 := f.NewBlock() // L0: branch to L2 or fall into L1
				b1 := f.NewBlock() // L1: defines v0
				b2 := f.NewBlock() // L2: does not define v0
				b3 := f.NewBlock() // L3: reads v0 — undefined via L2
				b0.Insts = []rtl.Inst{
					{Kind: rtl.Cmp, Src: rtl.Imm(1), Src2: rtl.Imm(2)},
					{Kind: rtl.Br, BrRel: rtl.Eq, Target: b2.Label},
				}
				b1.Insts = []rtl.Inst{
					{Kind: rtl.Move, Dst: v(0), Src: rtl.Imm(5)},
					{Kind: rtl.Jmp, Target: b3.Label},
				}
				b2.Insts = []rtl.Inst{{Kind: rtl.Nop}}
				b3.Insts = []rtl.Inst{
					{Kind: rtl.Move, Dst: rtl.R(rtl.RV), Src: v(0)},
					{Kind: rtl.Ret, Src: rtl.R(rtl.RV)},
				}
			},
			wantRule:  verify.RuleUseBeforeDef,
			wantBlock: "L3",
		},
		{
			name: "irreducible-cfg",
			build: func(f *cfg.Func) {
				b0 := f.NewBlock()
				b1 := f.NewBlock()
				b2 := f.NewBlock()
				// L1 and L2 form a cycle entered at both ends: no single
				// header dominates it, so the graph is irreducible.
				b0.Insts = []rtl.Inst{
					{Kind: rtl.Cmp, Src: rtl.Imm(1), Src2: rtl.Imm(2)},
					{Kind: rtl.Br, BrRel: rtl.Eq, Target: b2.Label},
				}
				b1.Insts = []rtl.Inst{{Kind: rtl.Jmp, Target: b2.Label}}
				b2.Insts = []rtl.Inst{{Kind: rtl.Jmp, Target: b1.Label}}
			},
			wantRule:  verify.RuleIrreducible,
			wantBlock: "",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := cfg.NewFunc("t", 0)
			c.build(f)
			vs := verify.Func(f, c.opts)
			for _, vi := range vs {
				if vi.Rule == c.wantRule && vi.Block == c.wantBlock {
					return
				}
			}
			t.Errorf("violations %v missing rule %q on block %q", vs, c.wantRule, c.wantBlock)
		})
	}
}

// TestUnreachableNamesEveryBlock checks that the unreachable-block rule
// names every dead block in layout order, a dead cycle's included.
func TestUnreachableNamesEveryBlock(t *testing.T) {
	f, err := cfg.ParseFunc(`func u(params=1, locals=1):
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
`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, vi := range verify.Func(f, verify.Options{}) {
		if vi.Rule == verify.RuleUnreachable {
			got = append(got, vi.Block)
		}
	}
	if strings.Join(got, " ") != "L2 L5" {
		t.Errorf("unreachable blocks %v, want [L2 L5]", got)
	}
}

// TestFuncReleasesEdges checks that the verifier hands every flow-graph
// snapshot it takes back to the function's arena: after verify.Func the
// next ComputeEdges reuses the Edges released before it.
func TestFuncReleasesEdges(t *testing.T) {
	prog, err := mcc.Compile(`
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 10; i++)
		if (i % 3) s += i;
	return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	pipeline.Optimize(prog, pipeline.Config{Machine: machine.M68020, Level: pipeline.Jumps})
	f := prog.Funcs[0]
	for _, o := range []verify.Options{{}, {SkipUnreachable: true}} {
		e := cfg.ComputeEdges(f)
		e.Release()
		if vs := verify.Func(f, o); len(vs) != 0 {
			t.Fatalf("%+v: %v", o, vs)
		}
		next := cfg.ComputeEdges(f)
		next.Release()
		if next != e {
			t.Errorf("%+v: verify.Func kept an Edges: ComputeEdges built a new one", o)
		}
	}
}

// TestStructureGatesSemanticRules checks that a structurally broken
// function reports only the structure violation: the semantic analyses
// assume well-formed blocks and must not run (or panic) on garbage.
func TestStructureGatesSemanticRules(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b := f.NewBlock()
	b.Insts = []rtl.Inst{
		{Kind: rtl.Jmp, Target: 99},            // dangling target
		{Kind: rtl.Move, Dst: v(0), Src: v(1)}, // code after CTI, use-before-def
	}
	vs := verify.Func(f, verify.Options{PostRegalloc: true})
	if len(vs) != 1 || vs[0].Rule != verify.RuleStructure {
		t.Errorf("want exactly one structure violation, got %v", vs)
	}
}

// TestMaxViolations checks the per-function findings cap.
func TestMaxViolations(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b0 := f.NewBlock()
	b0.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	for i := 0; i < 20; i++ {
		b := f.NewBlock()
		b.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	}
	vs := verify.Func(f, verify.Options{})
	if len(vs) != 8 {
		t.Errorf("default cap: got %d violations, want 8", len(vs))
	}
	vs = verify.Func(f, verify.Options{MaxViolations: 3})
	if len(vs) != 3 {
		t.Errorf("explicit cap: got %d violations, want 3", len(vs))
	}
}

// TestError checks the violation-list folding.
func TestError(t *testing.T) {
	if err := verify.Error(nil); err != nil {
		t.Errorf("Error(nil) = %v, want nil", err)
	}
	one := verify.Violation{Rule: verify.RuleDeadReg, Func: "f", Block: "L0", Detail: "d"}
	if err := verify.Error([]verify.Violation{one}); err == nil ||
		!strings.Contains(err.Error(), "dead-reg-use") {
		t.Errorf("single violation error = %v", err)
	}
	two := []verify.Violation{one, {Rule: verify.RuleCCPairing, Func: "f", Detail: "d2"}}
	if err := verify.Error(two); err == nil || !strings.Contains(err.Error(), "and 1 more") {
		t.Errorf("two-violation error = %v", err)
	}
}

// TestViolationString checks the diagnostic format, pass attribution
// included.
func TestViolationString(t *testing.T) {
	vi := verify.Violation{
		Rule: verify.RuleUseBeforeDef, Func: "main", Block: "L3",
		Pass: "cse", Iter: 2, Detail: "oops",
	}
	want := `verify: main: block L3: use-before-def: oops (after pass "cse", iteration 2)`
	if got := vi.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestCleanPipelineOutput is the positive control: the optimizer's output
// for a real program must satisfy every rule on both machines at every
// level.
func TestCleanPipelineOutput(t *testing.T) {
	src := `
int g[16];
int fib(int n) { if (n <= 1) return n; return fib(n-1) + fib(n-2); }
int main() {
	int i;
	for (i = 0; i < 16; i++) g[i] = fib(i);
	while (i > 0) { i--; putchar(48 + g[i] % 10); }
	return 0;
}`
	for _, m := range machine.All() {
		for _, lv := range []pipeline.Level{pipeline.Simple, pipeline.Loops, pipeline.Jumps} {
			prog, err := mcc.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			pipeline.Optimize(prog, pipeline.Config{Machine: m, Level: lv})
			vs := verify.Program(prog, verify.Options{
				DelaySlots:   m.DelaySlots,
				PostRegalloc: true,
			})
			if len(vs) != 0 {
				t.Errorf("%s/%s: %v", m.Name, lv, vs)
			}
		}
	}
}
