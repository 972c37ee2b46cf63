package opt

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/machine"
	"repro/internal/rtl"
)

// triangle builds one block in which v0, v1 and v2 interfere pairwise:
// each is loaded from its own local, then every store named in uses reads
// one of them (0 for v0, and so on) in that order.
func triangle(uses ...int) *cfg.Func {
	f := cfg.NewFunc("triangle", 0)
	b := f.NewBlock()
	for i := 0; i < 3; i++ {
		b.Insts = append(b.Insts, rtl.Inst{Kind: rtl.Move, Dst: rtl.R(rtl.VRegBase + rtl.Reg(i)), Src: rtl.Local(int64(i))})
	}
	for i, u := range uses {
		b.Insts = append(b.Insts, rtl.Inst{Kind: rtl.Move, Dst: rtl.Local(int64(3 + i)), Src: rtl.R(rtl.VRegBase + rtl.Reg(u))})
	}
	b.Insts = append(b.Insts, rtl.Inst{Kind: rtl.Ret})
	f.NLocals, f.NVRegs = 3+len(uses), 3
	return f
}

// mentions reports whether any block of f reads or defines r.
func mentions(f *cfg.Func, r rtl.Reg) bool {
	for _, b := range f.Blocks {
		if mentionsReg(b, r) {
			return true
		}
	}
	return false
}

// TestColorPicksLowestOnTie pins the optimistic pick: with two registers
// every node of the triangle has degree 2, v0 and v1 tie on cost below v2,
// and the lowest-numbered of them is pushed first, so it is the one left
// without a colour and spilled.
func TestColorPicksLowestOnTie(t *testing.T) {
	v0, v1 := rtl.VRegBase, rtl.VRegBase+1
	f := triangle(0, 1, 2, 2, 2)
	var temps RegSet
	if tryColor(f, &machine.Machine{NumRegs: 2}, &temps) {
		t.Fatal("a triangle coloured with two registers")
	}
	if mentions(f, v0) || !mentions(f, v1) {
		t.Errorf("spilled v0 %t, v1 %t; want v0 alone", !mentions(f, v0), !mentions(f, v1))
	}
}

// TestVictimLowestOnTie pins a spill temporary's victim: v2, a temporary,
// is the cheapest node and goes uncoloured; its non-temporary neighbours
// v0 and v1 tie on cost, and the lowest-numbered is spilled in its place.
func TestVictimLowestOnTie(t *testing.T) {
	v0, v1, v2 := rtl.VRegBase, rtl.VRegBase+1, rtl.VRegBase+2
	f := triangle(2, 0, 1, 0, 1)
	var temps RegSet
	temps.Add(v2)
	if tryColor(f, &machine.Machine{NumRegs: 2}, &temps) {
		t.Fatal("a triangle coloured with two registers")
	}
	if mentions(f, v0) || !mentions(f, v1) || !mentions(f, v2) {
		t.Errorf("spilled v0 %t, v1 %t, v2 %t; want v0 alone", !mentions(f, v0), !mentions(f, v1), !mentions(f, v2))
	}
}

// TestSpillsInRegisterOrder pins the order of one round's spills: with a
// single register the triangle leaves v1 and then v0 uncoloured, and
// spilling them in ascending register order gives v0 the first fresh frame
// slot and the lower temporaries.
func TestSpillsInRegisterOrder(t *testing.T) {
	f := triangle(0, 1, 2)
	slots, firstTemp := int64(f.NLocals), rtl.VRegBase+rtl.Reg(f.NVRegs)
	var temps RegSet
	if tryColor(f, &machine.Machine{NumRegs: 1}, &temps) {
		t.Fatal("a triangle coloured with one register")
	}
	// Each spilled load `vi = Li` became `t = Li; L(slot) = t`.
	type spill struct {
		slot int64
		temp rtl.Reg
	}
	var got []spill
	insts := f.Blocks[0].Insts
	for i := 0; i+1 < len(insts); i++ {
		if in := insts[i]; in.Src.Kind == rtl.OLocal && in.Src.Val < 3 && insts[i+1].Dst.Kind == rtl.OLocal {
			got = append(got, spill{insts[i+1].Dst.Val, in.Dst.Reg})
		}
	}
	want := []spill{{slots, firstTemp}, {slots + 1, firstTemp + 2}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("spilled loads of v0, v1 went to (slot, temp) %v, want %v", got, want)
	}
}
