package rtl

import (
	"testing"
	"testing/quick"
)

func TestRelNegateInvolution(t *testing.T) {
	f := func(r8 uint8, x, y int64) bool {
		r := Rel(r8 % 6)
		if r.Negate().Negate() != r {
			return false
		}
		// Negation flips the truth value on every input.
		return r.Holds(x, y) != r.Negate().Holds(x, y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelSwap(t *testing.T) {
	f := func(r8 uint8, x, y int64) bool {
		r := Rel(r8 % 6)
		return r.Holds(x, y) == r.Swap().Holds(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinOpCommutative(t *testing.T) {
	f := func(op8 uint8, x, y int64) bool {
		op := BinOp(op8 % 10)
		if !op.Commutative() {
			return true
		}
		return op.Eval(x, y) == op.Eval(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinOpEvalMatchesGo(t *testing.T) {
	cases := []struct {
		op   BinOp
		x, y int64
		want int64
	}{
		{Add, 3, 4, 7},
		{Sub, 3, 4, -1},
		{Mul, -3, 4, -12},
		{Div, 7, 2, 3},
		{Div, -7, 2, -3}, // truncating division, like C
		{Mod, 7, 3, 1},
		{Mod, -7, 3, -1},
		{Div, 5, 0, 0}, // division by zero is total (traps to zero)
		{Mod, 5, 0, 0},
		{And, 0b1100, 0b1010, 0b1000},
		{Or, 0b1100, 0b1010, 0b1110},
		{Xor, 0b1100, 0b1010, 0b0110},
		{Shl, 1, 4, 16},
		{Shr, -16, 2, -4}, // arithmetic shift
	}
	for _, c := range cases {
		if got := c.op.Eval(c.x, c.y); got != c.want {
			t.Errorf("%v.Eval(%d,%d) = %d, want %d", c.op, c.x, c.y, got, c.want)
		}
	}
}

func TestUnOpEval(t *testing.T) {
	if Neg.Eval(5) != -5 || Neg.Eval(-5) != 5 {
		t.Error("Neg broken")
	}
	if Not.Eval(0) != -1 {
		t.Error("Not broken")
	}
}

func TestOperandEqual(t *testing.T) {
	cases := []struct {
		a, b  Operand
		equal bool
	}{
		{R(3), R(3), true},
		{R(3), R(4), false},
		{Imm(7), Imm(7), true},
		{Imm(7), Imm(8), false},
		{Imm(7), R(7), false},
		{Local(2), Local(2), true},
		{Local(2), Local(3), false},
		{Global("x", 1), Global("x", 1), true},
		{Global("x", 1), Global("y", 1), false},
		{Mem(3, 4), Mem(3, 4), true},
		{Mem(3, 4), Mem(3, 5), false},
		{MemIdx(3, 0, 4, 1), MemIdx(3, 0, 4, 1), true},
		{MemIdx(3, 0, 4, 1), Mem(3, 0), false},
		{AddrLocal(1), AddrLocal(1), true},
		{AddrLocal(1), Local(1), false},
		{None(), None(), true},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.equal {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.equal)
		}
		if c.a.Equal(c.b) != c.b.Equal(c.a) {
			t.Errorf("Equal not symmetric for %v, %v", c.a, c.b)
		}
	}
}

func TestOperandUsesReg(t *testing.T) {
	if !R(5).UsesReg(5) || R(5).UsesReg(6) {
		t.Error("OReg UsesReg broken")
	}
	m := MemIdx(3, 0, 4, 1)
	if !m.UsesReg(3) || !m.UsesReg(4) || m.UsesReg(5) {
		t.Error("OMem UsesReg broken")
	}
	if Imm(3).UsesReg(3) {
		t.Error("Imm should not use registers")
	}
}

func TestInstUsedRegsAndDef(t *testing.T) {
	in := Inst{Kind: Bin, BOp: Add, Dst: R(1), Src: R(2), Src2: Mem(3, 0)}
	regs := in.UsedRegs(nil)
	want := map[Reg]bool{2: true, 3: true}
	for _, r := range regs {
		if !want[r] {
			t.Errorf("unexpected used reg %v", r)
		}
		delete(want, r)
	}
	if len(want) != 0 {
		t.Errorf("missing used regs: %v", want)
	}
	if in.DefReg() != 1 {
		t.Errorf("DefReg = %v, want r1", in.DefReg())
	}
	// Memory destination: base registers are reads, nothing is defined.
	st := Inst{Kind: Move, Dst: MemIdx(4, 0, 5, 1), Src: R(6)}
	if st.DefReg() != RegNone {
		t.Error("store should define no register")
	}
	regs = st.UsedRegs(nil)
	got := map[Reg]bool{}
	for _, r := range regs {
		got[r] = true
	}
	for _, r := range []Reg{4, 5, 6} {
		if !got[r] {
			t.Errorf("store should read r%d", r)
		}
	}
}

func TestInstClassification(t *testing.T) {
	cti := []Inst{
		{Kind: Br}, {Kind: Jmp}, {Kind: IJmp}, {Kind: Ret},
	}
	for _, in := range cti {
		if !in.IsCTI() {
			t.Errorf("%v should be a CTI", in.Kind)
		}
	}
	notCTI := []Inst{
		{Kind: Move}, {Kind: Bin}, {Kind: Call}, {Kind: Arg}, {Kind: Nop}, {Kind: Cmp},
	}
	for _, in := range notCTI {
		if in.IsCTI() {
			t.Errorf("%v should not be a CTI", in.Kind)
		}
	}
}

func TestInstClone(t *testing.T) {
	in := Inst{Kind: IJmp, Src: R(1), Table: []Label{1, 2, 3}}
	c := in.Clone()
	c.Table[0] = 99
	if in.Table[0] != 1 {
		t.Error("Clone shares the jump table")
	}
}

func TestStrings(t *testing.T) {
	// String forms are load-bearing for the examples and for CSE keys.
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Kind: Move, Dst: R(VRegBase), Src: Imm(5)}, "v0 = #5"},
		{Inst{Kind: Bin, BOp: Add, Dst: R(3), Src: R(3), Src2: Imm(1)}, "r3 = r3 + #1"},
		{Inst{Kind: Cmp, Src: Local(2), Src2: Imm(0)}, "CC = L[fp+2] ? #0"},
		{Inst{Kind: Br, BrRel: Lt, Target: 7}, "PC = CC < 0, L7"},
		{Inst{Kind: Jmp, Target: 3}, "PC = L3"},
		{Inst{Kind: Ret, Src: None()}, "PC = RT"},
		{Inst{Kind: Nop}, "nop"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if FP.String() != "fp" || SP.String() != "sp" || RV.String() != "rv" {
		t.Error("dedicated register names broken")
	}
}

func TestVirtualRegs(t *testing.T) {
	if VRegBase.IsVirtual() != true || FP.IsVirtual() || Reg(100).IsVirtual() {
		t.Error("IsVirtual boundary broken")
	}
}
