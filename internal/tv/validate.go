package tv

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/rtl"
	"repro/internal/verify"
)

// Validate checks one certificate against the function in its
// post-transformation state — the state the engine's OnCertificate callback
// observes, where every original block still coexists with its copies —
// and returns the violations found (nil when the certificate checks out).
// Violations carry verify.RuleTranslation; the caller (normally the
// pipeline's TV phase) stamps pass/stage/iteration attribution.
func Validate(f *cfg.Func, c *Certificate) []verify.Violation {
	v := &checker{f: f, c: c}
	switch c.Kind {
	case KindJumpDelete:
		v.checkJumpDelete()
	case KindReplication:
		v.checkReplication()
	case KindFold:
		v.checkFold()
	case KindRotation:
		v.checkRotation()
	default:
		v.failf(c.Block, "unknown certificate kind %q", c.Kind)
	}
	return v.vs
}

// checker carries one validation run's state: the function, the
// certificate, and the violations accumulated so far.
type checker struct {
	f  *cfg.Func
	c  *Certificate
	vs []verify.Violation
}

// failf records one violation anchored at the given block.
func (v *checker) failf(block rtl.Label, format string, args ...any) {
	v.vs = append(v.vs, verify.Violation{
		Rule:   verify.RuleTranslation,
		Func:   v.c.Func,
		Block:  block.String(),
		Detail: string(v.c.Kind) + " certificate: " + fmt.Sprintf(format, args...),
	})
}

func (v *checker) block(l rtl.Label) *cfg.Block { return v.f.BlockByLabel(l) }

// next returns b's positional successor, or nil at the end of the layout.
func (v *checker) next(b *cfg.Block) *cfg.Block {
	if b.Index+1 < len(v.f.Blocks) {
		return v.f.Blocks[b.Index+1]
	}
	return nil
}

// img is the image relation of the bisimulation: y is an image of x when
// it is x itself or a certificate-listed copy of x. Every control-flow
// edge leaving a copy must land on an image of the corresponding edge of
// its original.
func (v *checker) img(y, x rtl.Label) bool {
	if y == x {
		return true
	}
	for _, p := range v.c.Copies {
		if p.Orig == x && p.Copy == y {
			return true
		}
	}
	return false
}

// isAux reports whether l is one of the certificate's auxiliary jump
// blocks.
func (v *checker) isAux(l rtl.Label) bool {
	for _, a := range v.c.Aux {
		if a == l {
			return true
		}
	}
	return false
}

// deref resolves a fall-through destination through an auxiliary jump
// block: a copy whose branch kept both explicit targets falls into a
// fresh single-jump block that forwards to the real destination. Non-aux
// labels resolve to themselves.
func (v *checker) deref(l rtl.Label) (rtl.Label, bool) {
	if !v.isAux(l) {
		return l, true
	}
	b := v.block(l)
	if b == nil || len(b.Insts) != 1 || b.Insts[0].Kind != rtl.Jmp {
		return l, false
	}
	return b.Insts[0].Target, true
}

// body returns a block's instructions with the terminating control
// transfer (if any) stripped: the straight-line computation whose equality
// makes copy and original indistinguishable between cut points.
func body(b *cfg.Block) []rtl.Inst {
	if b.Term() != nil {
		return b.Insts[:len(b.Insts)-1]
	}
	return b.Insts
}

// bodiesEqual compares two straight-line instruction sequences.
func bodiesEqual(a, b []rtl.Inst) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(&b[i]) {
			return false
		}
	}
	return true
}

// checkJumpDelete validates the trivial replication: the jump is gone and
// the source block now falls through to exactly the block it used to jump
// to.
func (v *checker) checkJumpDelete() {
	b := v.block(v.c.Block)
	if b == nil {
		v.failf(v.c.Block, "source block not found")
		return
	}
	if v.block(v.c.Target) == nil {
		v.failf(v.c.Target, "target block not found")
		return
	}
	if b.Term() != nil {
		v.failf(v.c.Block, "source block still ends in a control transfer")
		return
	}
	if n := v.next(b); n == nil || n.Label != v.c.Target {
		v.failf(v.c.Block, "source block does not fall through to the deleted jump's target %v", v.c.Target)
	}
}

// checkReplication validates a JUMPS splice: the source falls into a
// faithful copy of its old jump target, every copy's body equals its
// original's, every edge leaving a copy lands on an image of the
// corresponding original edge, and every step-5 retarget lands on a
// listed copy of exactly the block it used to target.
func (v *checker) checkReplication() {
	c := v.c
	b := v.block(c.Block)
	if b == nil {
		v.failf(c.Block, "source block not found")
		return
	}
	if len(c.Copies) == 0 {
		v.failf(c.Block, "no copies listed")
		return
	}
	if b.Term() != nil {
		v.failf(c.Block, "source block still ends in a control transfer")
	} else if n := v.next(b); n == nil || n.Label != c.Copies[0].Copy {
		v.failf(c.Block, "source block does not fall into the first copy %v", c.Copies[0].Copy)
	}
	if c.Copies[0].Orig != c.Target {
		v.failf(c.Block, "first copy replicates %v, not the jump target %v", c.Copies[0].Orig, c.Target)
	}
	for _, al := range c.Aux {
		ab := v.block(al)
		if ab == nil || len(ab.Insts) != 1 || ab.Insts[0].Kind != rtl.Jmp {
			v.failf(al, "auxiliary block is not a single unconditional jump")
		}
	}
	for _, pair := range c.Copies {
		v.checkCopy(pair)
	}
	for _, r := range c.Retargets {
		v.checkRetarget(r)
	}
}

// checkCopy discharges one copy's cut-point obligations: body equality and
// edge correspondence under the image relation.
func (v *checker) checkCopy(pair CopyPair) {
	orig := v.block(pair.Orig)
	cp := v.block(pair.Copy)
	if orig == nil || cp == nil {
		v.failf(pair.Copy, "copy pair (%v, %v): block not found", pair.Orig, pair.Copy)
		return
	}
	if !bodiesEqual(body(cp), body(orig)) {
		v.failf(pair.Copy, "copy body diverges from original %v", pair.Orig)
		return
	}
	v.checkEdges(orig, cp)
}

// checkEdges checks that every control-flow edge leaving the copy lands on
// an image of the corresponding edge of the original — including the
// deleted-jump, appended-jump, branch-reversal and auxiliary-block shapes
// the splice produces.
func (v *checker) checkEdges(orig, cp *cfg.Block) {
	// The source block's own jump was consumed by this very splice; its
	// original terminator is reconstructed from the certificate's edge.
	var synth rtl.Inst
	oterm := orig.Term()
	if orig.Label == v.c.Block {
		synth = rtl.Inst{Kind: rtl.Jmp, Target: v.c.Target}
		oterm = &synth
	}
	origFall := rtl.NoLabel
	if nb := v.next(orig); nb != nil {
		origFall = nb.Label
	}
	cterm := cp.Term()
	copyFall := rtl.NoLabel
	if nb := v.next(cp); nb != nil {
		l, ok := v.deref(nb.Label)
		if !ok {
			v.failf(cp.Label, "fall-through runs into a malformed auxiliary block %v", nb.Label)
			return
		}
		copyFall = l
	}

	// singleSucc extracts the copy's unique successor when the original
	// has exactly one (fall-through or unconditional jump).
	singleSucc := func() (rtl.Label, bool) {
		switch {
		case cterm == nil:
			return copyFall, true
		case cterm.Kind == rtl.Jmp:
			return cterm.Target, true
		}
		return rtl.NoLabel, false
	}

	switch {
	case oterm == nil:
		succ, ok := singleSucc()
		if !ok {
			v.failf(cp.Label, "copy of fall-through block %v ends in a %v", orig.Label, cterm.Kind)
			return
		}
		if origFall == rtl.NoLabel {
			if succ != rtl.NoLabel {
				v.failf(cp.Label, "copy has a successor but original %v has none", orig.Label)
			}
		} else if !v.img(succ, origFall) {
			v.failf(cp.Label, "copy continues to %v, which is no image of the original fall-through %v", succ, origFall)
		}
	case oterm.Kind == rtl.Jmp:
		succ, ok := singleSucc()
		if !ok {
			v.failf(cp.Label, "copy of jump block %v ends in a %v", orig.Label, cterm.Kind)
			return
		}
		if !v.img(succ, oterm.Target) {
			v.failf(cp.Label, "copy continues to %v, which is no image of the jump target %v", succ, oterm.Target)
		}
	case oterm.Kind == rtl.Br:
		if cterm == nil || cterm.Kind != rtl.Br {
			v.failf(cp.Label, "copy of branch block %v does not end in a conditional branch", orig.Label)
			return
		}
		if cterm.Annul != oterm.Annul {
			v.failf(cp.Label, "copy branch annul bit diverges from original %v", orig.Label)
		}
		switch {
		case cterm.BrRel == oterm.BrRel:
			if !v.img(cterm.Target, oterm.Target) {
				v.failf(cp.Label, "copy branches to %v, which is no image of the original target %v", cterm.Target, oterm.Target)
			}
			if origFall == rtl.NoLabel {
				if copyFall != rtl.NoLabel {
					v.failf(cp.Label, "copy has a fall-through but original %v has none", orig.Label)
				}
			} else if !v.img(copyFall, origFall) {
				v.failf(cp.Label, "copy falls to %v, which is no image of the original fall-through %v", copyFall, origFall)
			}
		case cterm.BrRel == oterm.BrRel.Negate():
			// Branch reversal: the copy's layout swapped the two edges.
			if origFall == rtl.NoLabel {
				v.failf(cp.Label, "reversed branch but original %v has no fall-through", orig.Label)
				return
			}
			if !v.img(cterm.Target, origFall) {
				v.failf(cp.Label, "reversed branch targets %v, which is no image of the original fall-through %v", cterm.Target, origFall)
			}
			if !v.img(copyFall, oterm.Target) {
				v.failf(cp.Label, "reversed branch falls to %v, which is no image of the original target %v", copyFall, oterm.Target)
			}
		default:
			v.failf(cp.Label, "copy branch relation matches neither the original nor its reversal")
		}
	case oterm.Kind == rtl.IJmp:
		if cterm == nil || cterm.Kind != rtl.IJmp {
			v.failf(cp.Label, "copy of indirect-jump block %v does not end in an indirect jump", orig.Label)
			return
		}
		if !cterm.Src.Equal(oterm.Src) || cterm.Lo != oterm.Lo || len(cterm.Table) != len(oterm.Table) {
			v.failf(cp.Label, "copy jump-table selector diverges from original %v", orig.Label)
			return
		}
		for i := range cterm.Table {
			if !v.img(cterm.Table[i], oterm.Table[i]) {
				v.failf(cp.Label, "jump-table entry %d maps to %v, which is no image of %v", i, cterm.Table[i], oterm.Table[i])
			}
		}
	case oterm.Kind == rtl.Ret:
		if cterm == nil || !cterm.Equal(oterm) {
			v.failf(cp.Label, "copy of return block %v does not end in the same return", orig.Label)
		}
	}
}

// checkRetarget validates one step-5 redirect: the block's branch now
// points at New, and New is a certificate-listed copy of exactly Old.
func (v *checker) checkRetarget(r Retarget) {
	b := v.block(r.Block)
	if b == nil {
		v.failf(r.Block, "retargeted block not found")
		return
	}
	t := b.Term()
	if t == nil || t.Kind != rtl.Br {
		v.failf(r.Block, "retargeted block does not end in a conditional branch")
		return
	}
	if t.Target != r.New {
		v.failf(r.Block, "branch targets %v, certificate claims %v", t.Target, r.New)
		return
	}
	for _, p := range v.c.Copies {
		if p.Orig == r.Old && p.Copy == r.New {
			return
		}
	}
	v.failf(r.Block, "retarget lands on %v, which is not a listed copy of %v", r.New, r.Old)
}

// checkFold validates a DUPS conditional elimination: the copy is the test
// block with only its branch replaced by a transfer to the decided
// direction, the incoming edge was rewired onto the copy per the recorded
// shape, and the decision itself re-derives from scratch (the fold leg of
// the bisimulation — see checkFoldEvidence).
func (v *checker) checkFold() {
	c := v.c
	p := v.block(c.Block)
	t := v.block(c.Target)
	cp := v.block(c.Copy)
	if p == nil || t == nil || cp == nil {
		v.failf(c.Block, "predecessor %v, test %v or copy %v not found", c.Block, c.Target, c.Copy)
		return
	}
	tterm := t.Term()
	if tterm == nil || tterm.Kind != rtl.Br {
		v.failf(c.Target, "test block does not end in a conditional branch")
		return
	}
	tnext := v.next(t)
	if tnext == nil {
		v.failf(c.Target, "test block has no fall-through for the untaken direction")
		return
	}
	wantDest := tterm.Target
	if !c.Taken {
		wantDest = tnext.Label
	}
	if c.Dest != wantDest {
		v.failf(c.Copy, "folded transfer goes to %v, but the %v direction of the test is %v",
			c.Dest, map[bool]string{true: "taken", false: "fall-through"}[c.Taken], wantDest)
	}
	cterm := cp.Term()
	if cterm == nil || cterm.Kind != rtl.Jmp || cterm.Target != c.Dest {
		v.failf(c.Copy, "copy does not end in an unconditional jump to the decided destination %v", c.Dest)
	}
	if !bodiesEqual(body(cp), body(t)) {
		v.failf(c.Copy, "copy body diverges from the test block %v", c.Target)
		return
	}
	switch c.Edge {
	case EdgeJump:
		if p.Term() != nil {
			v.failf(c.Block, "predecessor still ends in a control transfer on a dissolved-jump edge")
		} else if n := v.next(p); n == nil || n.Label != c.Copy {
			v.failf(c.Block, "predecessor does not fall into the copy %v", c.Copy)
		}
	case EdgeFall:
		if pt := p.Term(); pt != nil && pt.Kind != rtl.Br {
			v.failf(c.Block, "fall-through edge from a block ending in a %v", pt.Kind)
		} else if n := v.next(p); n == nil || n.Label != c.Copy {
			v.failf(c.Block, "copy %v is not spliced into the fall-through edge", c.Copy)
		}
	case EdgeBrTaken:
		if pt := p.Term(); pt == nil || pt.Kind != rtl.Br || pt.Target != c.Copy {
			v.failf(c.Block, "predecessor's branch-taken edge does not land on the copy %v", c.Copy)
		}
	default:
		v.failf(c.Block, "unknown edge shape %q", c.Edge)
		return
	}
	v.checkFoldEvidence(p, t)
}

// checkFoldEvidence re-derives the folded branch's outcome along the edge
// from p into t using the validator's own constant environment and
// sign-set algebra (sym.go), and requires the derivation to travel the
// certificate's recorded route to its recorded verdict. The optimizer's
// conclusion is never trusted: a fold whose evidence does not reproduce is
// rejected even if the structural rewiring is perfect.
func (v *checker) checkFoldEvidence(p, t *cfg.Block) {
	c := v.c
	ci := lastCmp(t.Insts)
	if ci < 0 {
		v.failf(c.Target, "test block computes no condition of its own")
		return
	}
	tCmp := &t.Insts[ci]
	q := t.Term().BrRel

	env := newSymEnv()
	for i := range p.Insts {
		env.exec(&p.Insts[i])
	}
	for i := 0; i < ci; i++ {
		env.exec(&t.Insts[i])
	}

	switch c.Evidence.Route {
	case RouteConst:
		x, okx := env.lookup(tCmp.Src)
		y, oky := env.lookup(tCmp.Src2)
		if !okx || !oky {
			v.failf(c.Target, "constant evidence: compared operands are not constants on this path")
			return
		}
		if x != c.Evidence.X || y != c.Evidence.Y {
			v.failf(c.Target, "constant evidence mismatch: path proves (%d, %d), certificate claims (%d, %d)",
				x, y, c.Evidence.X, c.Evidence.Y)
			return
		}
		if q.Holds(x, y) != c.Taken {
			v.failf(c.Target, "constant evidence decides the branch against the folded direction")
		}
	case RouteRel:
		if c.Edge == EdgeJump {
			v.failf(c.Target, "relational evidence cannot flow across an unconditional jump")
			return
		}
		pt := p.Term()
		if pt == nil || pt.Kind != rtl.Br {
			v.failf(c.Block, "relational evidence requires the predecessor to end in a conditional branch")
			return
		}
		pi := lastCmp(p.Insts)
		if pi < 0 {
			v.failf(c.Block, "relational evidence requires a comparison in the predecessor")
			return
		}
		pc := &p.Insts[pi]
		if !carriable(pc.Src) || !carriable(pc.Src2) {
			v.failf(c.Block, "relational evidence operands cannot be carried across blocks")
			return
		}
		if !pc.Src.Equal(c.Evidence.RelX) || !pc.Src2.Equal(c.Evidence.RelY) {
			v.failf(c.Block, "relational evidence operands do not match the predecessor's comparison")
			return
		}
		rel := pt.BrRel
		if c.Edge == EdgeFall {
			rel = rel.Negate()
		}
		if rel != c.Evidence.Rel {
			v.failf(c.Block, "edge carries relation %v, certificate claims %v", rel, c.Evidence.Rel)
			return
		}
		if !unclobbered(pc.Src, pc.Src2, p.Insts[pi+1:]) || !unclobbered(pc.Src, pc.Src2, t.Insts[:ci]) {
			v.failf(c.Target, "compared operands are not provably stable between the two tests")
			return
		}
		var qr rtl.Rel
		switch {
		case tCmp.Src.Equal(pc.Src) && tCmp.Src2.Equal(pc.Src2):
			qr = q
		case tCmp.Src.Equal(pc.Src2) && tCmp.Src2.Equal(pc.Src):
			qr = q.Swap()
		default:
			v.failf(c.Target, "folded comparison does not test the evidence operands")
			return
		}
		decided, outcome := implies(rel, qr)
		if !decided {
			v.failf(c.Target, "relational evidence does not decide the branch")
		} else if outcome != c.Taken {
			v.failf(c.Target, "relational evidence decides the branch against the folded direction")
		}
	default:
		v.failf(c.Target, "unknown evidence route %q", c.Evidence.Route)
	}
}

// checkRotation validates a LOOPS rotation: the jump block's appended tail
// is the loop test's body followed by a branch whose taken and
// fall-through edges are the test's two successors, directly or reversed.
func (v *checker) checkRotation() {
	c := v.c
	p := v.block(c.Block)
	h := v.block(c.Target)
	if p == nil || h == nil {
		v.failf(c.Block, "jump block %v or test block %v not found", c.Block, c.Target)
		return
	}
	if c.CopyLen < 2 || c.CopyLen != len(h.Insts) {
		v.failf(c.Block, "rotation copied %d instructions, test block %v has %d", c.CopyLen, c.Target, len(h.Insts))
		return
	}
	if len(p.Insts) < c.CopyLen {
		v.failf(c.Block, "jump block is shorter than the rotated test")
		return
	}
	hterm := h.Term()
	if hterm == nil || hterm.Kind != rtl.Br {
		v.failf(c.Target, "rotated block does not end in a conditional branch")
		return
	}
	hnext := v.next(h)
	if hnext == nil {
		v.failf(c.Target, "rotated test has no fall-through successor")
		return
	}
	tail := p.Insts[len(p.Insts)-c.CopyLen:]
	if !bodiesEqual(tail[:c.CopyLen-1], h.Insts[:len(h.Insts)-1]) {
		v.failf(c.Block, "rotated test body diverges from the loop test %v", c.Target)
		return
	}
	br := &tail[c.CopyLen-1]
	if br.Kind != rtl.Br {
		v.failf(c.Block, "rotated test does not end in a conditional branch")
		return
	}
	if br.Annul != hterm.Annul {
		v.failf(c.Block, "rotated branch annul bit diverges from the loop test")
	}
	pnext := v.next(p)
	if pnext == nil {
		v.failf(c.Block, "rotated block has no fall-through successor")
		return
	}
	switch {
	case br.BrRel == hterm.BrRel:
		if br.Target != hterm.Target || pnext.Label != hnext.Label {
			v.failf(c.Block, "rotated branch edges (%v, %v) do not match the loop test's (%v, %v)",
				br.Target, pnext.Label, hterm.Target, hnext.Label)
		}
	case br.BrRel == hterm.BrRel.Negate():
		if br.Target != hnext.Label || pnext.Label != hterm.Target {
			v.failf(c.Block, "reversed rotated branch edges (%v, %v) do not swap the loop test's (%v, %v)",
				br.Target, pnext.Label, hterm.Target, hnext.Label)
		}
	default:
		v.failf(c.Block, "rotated branch relation matches neither the loop test nor its reversal")
	}
}
