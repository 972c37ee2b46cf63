package opt

import (
	"testing"

	"repro/internal/rtl"
)

// addKey is the expression key of `x + y`.
func addKey(x, y rtl.Operand) exprK {
	k, _ := exprKey(&rtl.Inst{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(rtl.VRegBase), Src: x, Src2: y})
	return k
}

// TestVNStateOverwrite checks that each table keeps one fact per key: a
// second set for the key replaces the first.
func TestVNStateOverwrite(t *testing.T) {
	r1, r2, r3 := rtl.VRegBase+1, rtl.VRegBase+2, rtl.VRegBase+3
	s := newVNState(nil)
	s.setConst(r1, 5)
	s.setConst(r1, 7)
	s.setCopy(r2, r1)
	s.setCopy(r2, r3)
	k := addKey(rtl.R(r1), rtl.Imm(1))
	s.setExpr(k, r2)
	s.setExpr(k, r3)
	m := opKey(rtl.Local(4))
	s.setMem(m, r1)
	s.setMem(m, r3)
	if len(s.constOf) != 1 || len(s.copyOf) != 1 || len(s.exprOf) != 1 || len(s.memVal) != 1 {
		t.Fatalf("tables hold %d/%d/%d/%d facts, want one each", len(s.constOf), len(s.copyOf), len(s.exprOf), len(s.memVal))
	}
	if v, ok := s.constVal(r1); !ok || v != 7 {
		t.Errorf("constant of r1 = %d, %t; want 7", v, ok)
	}
	if got := s.resolve(r2); got != r3 {
		t.Errorf("r2 resolves to %v, want %v", got, r3)
	}
	if r, ok := s.exprReg(k); !ok || r != r3 {
		t.Errorf("expression held in %v, %t; want %v", r, ok, r3)
	}
	if r, ok := s.memReg(m); !ok || r != r3 {
		t.Errorf("memory value held in %v, %t; want %v", r, ok, r3)
	}
	// Keys compare field by field, so a differing symbol is another key.
	if _, ok := s.memReg(opKey(rtl.Global("g", 4))); ok {
		t.Error("a global at the same offset found the local's fact")
	}
}

// TestVNStateInvalidateReg checks that redefining a register drops every
// fact that mentions it — as a key, as a value, or as an operand of a key,
// an OMem index included — and keeps the rest.
func TestVNStateInvalidateReg(t *testing.T) {
	r, a, b, c := rtl.VRegBase, rtl.VRegBase+1, rtl.VRegBase+2, rtl.VRegBase+3
	s := newVNState(nil)
	s.setConst(r, 1) // key r
	s.setConst(a, 2)
	s.setCopy(r, a) // key r
	s.setCopy(b, r) // value r
	s.setCopy(c, a)
	s.setExpr(addKey(rtl.R(r), rtl.Imm(1)), a) // operand r
	s.setExpr(addKey(rtl.R(a), rtl.Imm(1)), r) // value r
	s.setExpr(addKey(rtl.R(a), rtl.R(b)), c)   // neither
	s.setMem(opKey(rtl.MemIdx(a, 0, r, 4)), b) // OMem index r
	s.setMem(opKey(rtl.Mem(r, 8)), b)          // OMem base r
	s.setMem(opKey(rtl.Local(0)), r)           // value r
	s.setMem(opKey(rtl.MemIdx(a, 0, b, 4)), c) // neither
	s.invalidateReg(r)

	if _, ok := s.constVal(r); ok {
		t.Error("constant fact keyed by r survived")
	}
	if v, ok := s.constVal(a); !ok || v != 2 {
		t.Error("constant fact of a was dropped")
	}
	if len(s.copyOf) != 1 || s.copyOf[0] != (copyFact{c, a}) {
		t.Errorf("copy table %v, want only c = a", s.copyOf)
	}
	if len(s.exprOf) != 1 || s.exprOf[0].r != c {
		t.Errorf("expression table holds %d facts, want only a + b in c", len(s.exprOf))
	}
	if len(s.memVal) != 1 || s.memVal[0].r != c {
		t.Errorf("memory table holds %d facts, want only M[a+b*4] in c", len(s.memVal))
	}
	s.invalidateMemory()
	if len(s.memVal) != 0 {
		t.Error("invalidateMemory left memory facts")
	}
	if len(s.exprOf) != 1 {
		t.Error("invalidateMemory dropped an expression")
	}
}

// TestVNStateResolveCap checks that copy chains are followed for at most 8
// hops.
func TestVNStateResolveCap(t *testing.T) {
	s := newVNState(nil)
	// v10 = v9, v9 = v8, ..., v1 = v0: ten hops from v10 to v0.
	for i := 10; i > 0; i-- {
		s.setCopy(rtl.VRegBase+rtl.Reg(i), rtl.VRegBase+rtl.Reg(i-1))
	}
	if got, want := s.resolve(rtl.VRegBase+10), rtl.VRegBase+2; got != want {
		t.Errorf("v10 resolves to %v, want %v after 8 hops", got, want)
	}
	if got, want := s.resolve(rtl.VRegBase+5), rtl.VRegBase; got != want {
		t.Errorf("v5 resolves to %v, want %v", got, want)
	}
}

// TestVNStateCopyFrom checks that a copied state is independent of its
// source and that a copy into a fresh state leaves empty tables nil.
func TestVNStateCopyFrom(t *testing.T) {
	r1, r2 := rtl.VRegBase+1, rtl.VRegBase+2
	src := newVNState(nil)
	src.setConst(r1, 3)
	src.setExpr(addKey(rtl.R(r1), rtl.Imm(1)), r2)
	c := newVNState(nil)
	c.copyFrom(src)
	if c.copyOf != nil || c.memVal != nil {
		t.Error("empty tables of a fresh copy are not nil")
	}
	c.setConst(r1, 4)
	c.invalidateReg(r2)
	if v, _ := src.constVal(r1); v != 3 || len(src.exprOf) != 1 {
		t.Error("changing the copy changed its source")
	}
	c.reset()
	c.copyFrom(src)
	if v, _ := c.constVal(r1); v != 3 || len(c.exprOf) != 1 {
		t.Error("a reused state does not equal its source")
	}
}
