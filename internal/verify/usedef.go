package verify

import (
	"repro/internal/cfg"
	"repro/internal/rtl"
)

// checkUseBeforeDef flags instructions that read a virtual register not
// defined on every path from the entry — a must-be-defined forward dataflow
// (the dual of reaching definitions: a use is flagged only when NO
// definition reaches it on some path, so conditionally-defined temporaries
// guarded by the same condition never false-positive... they do not arise:
// every pass that introduces a virtual register, promotion, CSE and
// strength reduction, makes its definition dominate every use, so a
// violation here means a pass moved or deleted a def out from under a use).
//
// Machine registers are exempt: before allocation the frame/stack/result
// registers are legitimately read without a visible definition, and after
// allocation checkDeadRegs covers them precisely via liveness. The
// condition code is exempt too — checkCCPairing enforces the stricter
// same-block discipline.
func checkUseBeforeDef(f *cfg.Func, add addFunc, full func() bool) {
	e := cfg.ComputeEdges(f)
	n := len(f.Blocks)

	// defs[i]: virtual registers defined anywhere in block i.
	defs := make([]map[rtl.Reg]bool, n)
	for i, b := range f.Blocks {
		s := map[rtl.Reg]bool{}
		for ii := range b.Insts {
			if d := b.Insts[ii].DefReg(); d.IsVirtual() {
				s[d] = true
			}
		}
		defs[i] = s
	}

	// in[i]: virtual registers defined on EVERY path from the entry to the
	// start of block i; nil = not yet known (optimistic top). The entry's
	// in-set is the empty set regardless of any back edge into it.
	in := make([]map[rtl.Reg]bool, n)
	in[0] = map[rtl.Reg]bool{}
	out := func(i int) map[rtl.Reg]bool {
		if in[i] == nil {
			return nil
		}
		o := make(map[rtl.Reg]bool, len(in[i])+len(defs[i]))
		for r := range in[i] {
			o[r] = true
		}
		for r := range defs[i] {
			o[r] = true
		}
		return o
	}
	for changed := true; changed; {
		changed = false
		for i := 1; i < n; i++ {
			var cur map[rtl.Reg]bool
			for _, p := range e.Preds[i] {
				po := out(p.Index)
				if po == nil {
					continue // unknown predecessor: stay optimistic
				}
				if cur == nil {
					cur = po
					continue
				}
				for r := range cur {
					if !po[r] {
						delete(cur, r)
					}
				}
			}
			if cur == nil || (in[i] != nil && equalSets(cur, in[i])) {
				continue
			}
			in[i] = cur
			changed = true
		}
	}
	e.Release()

	// Linear scan of every reached block against its must-defined set.
	var scratch []rtl.Reg
	for i, b := range f.Blocks {
		if in[i] == nil {
			continue // unreachable: its own rule reports it
		}
		cur := make(map[rtl.Reg]bool, len(in[i]))
		for r := range in[i] {
			cur[r] = true
		}
		for ii := range b.Insts {
			if full() {
				return
			}
			inst := &b.Insts[ii]
			scratch = inst.UsedRegs(scratch[:0])
			for _, r := range scratch {
				if r.IsVirtual() && !cur[r] {
					add(RuleUseBeforeDef, b.Label.String(),
						"%q reads %s, which is not defined on every path from the entry",
						inst.String(), r)
				}
			}
			if d := inst.DefReg(); d.IsVirtual() {
				cur[d] = true
			}
		}
	}
}

// equalSets reports whether a and b hold the same registers (b may be nil).
func equalSets(a, b map[rtl.Reg]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for r := range a {
		if !b[r] {
			return false
		}
	}
	return true
}
