package replicate

import (
	"repro/internal/cfg"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/tv"
)

// DUPS is the fourth optimization level's replication pass: conditional
// elimination through code duplication (after Breitner; see PAPERS.md)
// layered over the generalized JUMPS replication. A conditional branch
// whose outcome is already decided when control arrives along one incoming
// edge — because the compared values are constants on that path, or because
// a dominating test on the same comparison implies the result — is
// eliminated on that edge by duplicating the test block with the branch
// folded to the decided transfer.
//
// The two legs are staged, not interleaved: conditional elimination waits
// until jump replication has nothing left to do. While JUMPS still makes
// progress DUPS is JUMPS, so the function walks the identical pass
// trajectory it would at the JUMPS level — folding earlier perturbs the
// replicator's candidate choices and can cost more downstream branch
// eliminations than the folds save (fuzz seed 60 caught exactly that).
// Only at that fixpoint does a fold fire, a strict improvement on the
// JUMPS-final flow graph; the unconditional jump it leaves in the copy is
// replicated away by the trailing JUMPS sweep, exactly as the paper's
// replication kills the jumps ordinary code generation leaves behind.
func DUPS(f *cfg.Func, opts Options) Result { return dups(f, opts, JUMPS) }

// dups is DUPS with its jump-replication leg supplied by the caller: the
// seam through which the tests check every JUMPS sweep DUPS runs.
func dups(f *cfg.Func, opts Options, jumpsLeg func(*cfg.Func, Options) Result) Result {
	res := jumpsLeg(f, opts)
	if res.Changed {
		return res
	}
	res.Merge(condElim(f, opts))
	if res.Changed {
		res.Merge(jumpsLeg(f, opts))
	}
	return res
}

// condElim repeatedly folds decided conditional branches until a sweep
// finds nothing foldable or the growth budget is exhausted. Every applied
// fold consumes the decided edge it acted on, and failed (rolled-back)
// edges are blacklisted for the invocation, so each sweep makes strict
// progress on its decided-edge count (countDecidedEdges) or terminates the
// pass.
func condElim(f *cfg.Func, opts Options) Result {
	c := newFolder(f, opts)
	for !c.g.exhausted() {
		if c.sweep() == 0 {
			break
		}
		c.res.Changed = true
	}
	return c.res
}

// folder is one condElim invocation. decided is its profitability metric,
// the decided-edge count: counted over the whole function once and then
// kept exact around each fold (decidedAround), so a fold costs the edges it
// can change rather than a recount of every block.
type folder struct {
	f         *cfg.Func
	opts      Options
	g         *budget
	blacklist map[jumpKey]bool
	res       Result
	decided   int
}

// newFolder opens one condElim invocation over f, counting its decided
// edges once.
func newFolder(f *cfg.Func, opts Options) *folder {
	decided := countDecidedEdges(f)
	return &folder{f: f, opts: opts, g: newBudget(f, opts, decided), blacklist: map[jumpKey]bool{}, decided: decided}
}

// dupEdge is one incoming edge of a conditional test block, in the shape
// its fold certificate names.
type dupEdge struct {
	t    *cfg.Block
	kind tv.EdgeShape
}

// edgesOf enumerates p's outgoing edges in the shapes conditional
// elimination can rewire (indirect jumps are excluded: a jump-table entry
// is not an edge the engine retargets).
func edgesOf(f *cfg.Func, p *cfg.Block) []dupEdge {
	var out []dupEdge
	t := p.Term()
	next := func() *cfg.Block {
		if p.Index+1 < len(f.Blocks) {
			return f.Blocks[p.Index+1]
		}
		return nil
	}
	switch {
	case t == nil:
		if nb := next(); nb != nil {
			out = append(out, dupEdge{t: nb, kind: tv.EdgeFall})
		}
	case t.Kind == rtl.Jmp:
		if tb := f.BlockByLabel(t.Target); tb != nil {
			out = append(out, dupEdge{t: tb, kind: tv.EdgeJump})
		}
	case t.Kind == rtl.Br:
		if tb := f.BlockByLabel(t.Target); tb != nil {
			out = append(out, dupEdge{t: tb, kind: tv.EdgeBrTaken})
		}
		if nb := next(); nb != nil {
			out = append(out, dupEdge{t: nb, kind: tv.EdgeFall})
		}
	}
	return out
}

// foldable reports whether t is a test block a fold could act on: it ends
// in a conditional branch fed by a comparison of its own, has a layout
// fall-through for the untaken direction, and is not degenerate (a branch
// to its own fall-through decides nothing).
func foldable(f *cfg.Func, t *cfg.Block) bool {
	tt := t.Term()
	if tt == nil || tt.Kind != rtl.Br {
		return false
	}
	if t.Index+1 >= len(f.Blocks) || tt.Target == f.Blocks[t.Index+1].Label {
		return false
	}
	return lastCmpBefore(t) >= 0
}

// sweep walks the blocks once, folding at most one decided outgoing edge
// of each. Returns the number of folds applied.
func (c *folder) sweep() int {
	made := 0
	for pi := 0; pi < len(c.f.Blocks) && !c.g.exhausted(); pi++ {
		if c.foldFrom(c.f.Blocks[pi]) {
			made++
		}
	}
	return made
}

// foldFrom folds the first decided outgoing edge of p whose fold is kept,
// and reports whether it applied one. The fold rewires p and shifts the
// layout, so p's stale edge list is dropped and the sweep moves on (later
// sweeps revisit whatever remains).
func (c *folder) foldFrom(p *cfg.Block) bool {
	f, opts := c.f, c.opts
	for _, e := range edgesOf(f, p) {
		t := e.t
		if t == p || !foldable(f, t) {
			continue
		}
		key := jumpKey{p.Label, t.Label}
		if c.blacklist[key] {
			continue
		}
		if opts.MaxSeqRTLs > 0 && len(t.Insts) > opts.MaxSeqRTLs {
			continue
		}
		// A branch-taken edge parks its copy at the end of the layout,
		// which requires the last block not to fall off the end.
		if e.kind == tv.EdgeBrTaken {
			if lt := f.Blocks[len(f.Blocks)-1].Term(); lt == nil || lt.Kind == rtl.Br {
				continue
			}
		}
		decided, taken, ev := decideEdge(p, t, e.kind)
		if !decided {
			continue
		}
		meta := []obs.Candidate{{Kind: obs.KindFold, RTLs: len(t.Insts), Blocks: 1}}
		before := decidedAround(f, p, nil)
		cp := applyFold(f, opts, p, t, e.kind, taken, ev)
		if cp == nil {
			c.blacklist[key] = true
			c.res.Rollbacks++
			meta[0].RolledBack = true
			emitDecision(opts, f, key.block, key.target, meta, obs.OutRolledBack)
			continue
		}
		c.decided += decidedAround(f, p, cp) - before
		meta[0].Applied = true
		c.res.BranchesFolded++
		c.res.RTLsCopied += len(t.Insts)
		emitDecision(opts, f, key.block, key.target, meta, obs.OutApplied)
		c.g.spent(c.decided)
		return true
	}
	return false
}

// applyFold duplicates t as a copy whose conditional branch is replaced by
// the decided transfer, and rewires the edge from p onto the copy — all
// under the engine's reducibility guard, so a fold that would break the
// flow graph's reducibility (for example by giving a natural loop a second
// entry) is rolled back byte-identically. Returns the copy, or nil when
// the fold was rolled back.
func applyFold(f *cfg.Func, opts Options, p, t *cfg.Block, kind tv.EdgeShape, taken bool, ev tv.Evidence) *cfg.Block {
	dest := t.Term().Target
	if !taken {
		dest = f.Blocks[t.Index+1].Label
	}
	var nb *cfg.Block
	kept := applyGuarded(f, opts, func(u *undoLog) {
		nb = t.Clone()
		nb.Label = f.NewLabel()
		// The comparison (and everything before it) is kept — values and
		// the condition code are computed exactly as in the original — and
		// only the branch is folded to the decided transfer.
		nb.Insts[len(nb.Insts)-1] = rtl.Inst{Kind: rtl.Jmp, Target: dest}
		switch kind {
		case tv.EdgeJump:
			// The fold dissolves p's jump too: the copy becomes p's
			// fall-through, removing one dynamic unconditional jump and
			// one dynamic conditional branch per traversal.
			u.truncated(p)
			p.Insts = p.Insts[:len(p.Insts)-1]
			f.InsertBlocksAfter(p.Index, nb)
			u.insertedBlocks(p.Index, 1)
		case tv.EdgeFall:
			// p falls through into t (from a terminator-less block or a
			// branch's fall-through): the copy goes between the two.
			f.InsertBlocksAfter(p.Index, nb)
			u.insertedBlocks(p.Index, 1)
		case tv.EdgeBrTaken:
			// p's branch targets t: the copy parks at the end of the
			// layout and the taken edge is retargeted onto it.
			at := len(f.Blocks) - 1
			f.InsertBlocksAfter(at, nb)
			u.insertedBlocks(at, 1)
			pt := p.Term()
			u.retargeted(pt, pt.Target)
			pt.Target = nb.Label
		}
	})
	if kept == nil {
		return nil
	}
	releaseFlow(kept)
	if opts.OnCertificate != nil {
		opts.OnCertificate(f, &tv.Certificate{
			Kind: tv.KindFold, Func: f.Name,
			Block: p.Label, Target: t.Label, Copy: nb.Label,
			Edge: kind, Taken: taken, Dest: dest, Evidence: ev,
		})
	}
	return nb
}

// lastCmpBefore returns the index of the last comparison before t's
// terminator (the one its conditional branch tests), or -1 when the block
// computes no condition of its own (the condition code then flows in from
// a predecessor — out of scope for a per-edge fold).
func lastCmpBefore(t *cfg.Block) int {
	for i := len(t.Insts) - 2; i >= 0; i-- {
		if t.Insts[i].Kind == rtl.Cmp {
			return i
		}
	}
	return -1
}

// relFact is relational knowledge carried along an edge: "x rel y held when
// control left the predecessor's test".
type relFact struct {
	x, y rtl.Operand
	rel  rtl.Rel
	ok   bool
}

// decideEdge reports whether t's conditional branch outcome is known when
// control enters t along the given edge from p, and if so which way the
// branch goes. Two routes decide it: the compared values are constants on
// the path through p (per-path constant propagation over registers and
// unaliased frame slots), or p's own terminating test compared the same
// operands and the edge direction implies the result (sign-set
// implication between the two relations). The returned evidence names the
// route and its inputs for the fold's translation-validation certificate,
// which the validator re-derives rather than trusts.
func decideEdge(p, t *cfg.Block, kind tv.EdgeShape) (bool, bool, tv.Evidence) {
	ci := lastCmpBefore(t)
	if ci < 0 {
		return false, false, tv.Evidence{}
	}
	tCmp := &t.Insts[ci]
	q := t.Term().BrRel

	env := newConstEnv()
	for i := range p.Insts {
		env.step(&p.Insts[i])
	}

	// Relational knowledge from p's own test, valid only on conditional
	// edges and only while neither compared operand can have changed
	// between the two comparisons.
	var fact relFact
	if pt := p.Term(); pt != nil && pt.Kind == rtl.Br && kind != tv.EdgeJump {
		if pi := lastCmpBefore(p); pi >= 0 {
			pc := &p.Insts[pi]
			if comparableOperand(pc.Src) && comparableOperand(pc.Src2) &&
				operandsStable(pc.Src, pc.Src2, p.Insts[pi+1:]) {
				rel := pt.BrRel
				if kind == tv.EdgeFall {
					rel = rel.Negate()
				}
				fact = relFact{x: pc.Src, y: pc.Src2, rel: rel, ok: true}
			}
		}
	}
	if fact.ok && !operandsStable(fact.x, fact.y, t.Insts[:ci]) {
		fact.ok = false
	}
	for i := 0; i < ci; i++ {
		env.step(&t.Insts[i])
	}

	// Constant route: both compared values are known on this path.
	if x, okx := env.value(tCmp.Src); okx {
		if y, oky := env.value(tCmp.Src2); oky {
			return true, q.Holds(x, y), tv.Evidence{Route: tv.RouteConst, X: x, Y: y}
		}
	}

	// Dominating-test route: p compared the same operands (directly or
	// swapped) and the known relation implies or excludes t's.
	if fact.ok {
		var qr rtl.Rel
		matched := false
		switch {
		case tCmp.Src.Equal(fact.x) && tCmp.Src2.Equal(fact.y):
			qr, matched = q, true
		case tCmp.Src.Equal(fact.y) && tCmp.Src2.Equal(fact.x):
			qr, matched = q.Swap(), true
		}
		if matched {
			ev := tv.Evidence{Route: tv.RouteRel, RelX: fact.x, RelY: fact.y, Rel: fact.rel}
			ks, qs := relSigns(fact.rel), relSigns(qr)
			switch {
			case ks&^qs == 0:
				return true, true, ev
			case ks&qs == 0:
				return true, false, ev
			}
		}
	}
	return false, false, tv.Evidence{}
}

// relSigns encodes a relation as the set of comparison outcomes
// ({<, ==, >}) that satisfy it. Implication between two relations on the
// same operand pair reduces to set algebra: known ⊆ query means the query
// must hold; known ∩ query = ∅ means it cannot.
func relSigns(r rtl.Rel) uint8 {
	const lt, eq, gt = 1, 2, 4
	switch r {
	case rtl.Eq:
		return eq
	case rtl.Ne:
		return lt | gt
	case rtl.Lt:
		return lt
	case rtl.Le:
		return lt | eq
	case rtl.Gt:
		return gt
	case rtl.Ge:
		return gt | eq
	}
	return lt | eq | gt
}

// comparableOperand reports whether relational knowledge about the operand
// can be carried across blocks: registers, immediates and frame slots
// qualify; anything reached through memory indirection does not.
func comparableOperand(o rtl.Operand) bool {
	switch o.Kind {
	case rtl.OReg, rtl.OImm, rtl.OLocal:
		return true
	}
	return false
}

// operandsStable reports whether executing insts cannot change the values
// the two operands denote: no instruction defines a register either reads,
// and no store or call can alias a frame slot either reads.
func operandsStable(x, y rtl.Operand, insts []rtl.Inst) bool {
	usesReg := func(r rtl.Reg) bool {
		return (x.Kind == rtl.OReg && x.Reg == r) || (y.Kind == rtl.OReg && y.Reg == r)
	}
	usesLocal := func(off int64, any bool) bool {
		if x.Kind == rtl.OLocal && (any || x.Val == off) {
			return true
		}
		return y.Kind == rtl.OLocal && (any || y.Val == off)
	}
	for i := range insts {
		in := &insts[i]
		if d := in.DefReg(); d != rtl.RegNone && usesReg(d) {
			return false
		}
		switch in.Kind {
		case rtl.Move, rtl.Bin, rtl.Un:
			switch in.Dst.Kind {
			case rtl.OLocal:
				if usesLocal(in.Dst.Val, false) {
					return false
				}
			case rtl.OMem, rtl.OGlobal:
				// A store through a pointer may alias any addressable
				// frame slot.
				if usesLocal(0, true) {
					return false
				}
			}
		case rtl.Call:
			// The callee may write any addressable frame slot through a
			// pointer (registers are per-frame and survive).
			if usesLocal(0, true) {
				return false
			}
		}
	}
	return true
}

// constEnv is the per-path constant environment of decideEdge: known
// constant values of registers and unaliased frame slots. It starts empty
// (everything unknown) at the predecessor's entry, which is sound — the
// analysis only ever narrows an "unknown" to a proven constant observed on
// the simulated path itself.
type constEnv struct {
	regs   map[rtl.Reg]int64
	locals map[int64]int64
}

func newConstEnv() *constEnv {
	return &constEnv{regs: map[rtl.Reg]int64{}, locals: map[int64]int64{}}
}

// value resolves an operand to a known constant.
func (e *constEnv) value(o rtl.Operand) (int64, bool) {
	switch o.Kind {
	case rtl.OImm:
		return o.Val, true
	case rtl.OReg:
		v, ok := e.regs[o.Reg]
		return v, ok
	case rtl.OLocal:
		v, ok := e.locals[o.Val]
		return v, ok
	}
	return 0, false
}

// assign records a known (or unknown) value for a destination operand;
// stores through memory conservatively clear every tracked frame slot
// (pointer writes may alias any addressable local).
func (e *constEnv) assign(o rtl.Operand, v int64, known bool) {
	switch o.Kind {
	case rtl.OReg:
		if known {
			e.regs[o.Reg] = v
		} else {
			delete(e.regs, o.Reg)
		}
	case rtl.OLocal:
		if known {
			e.locals[o.Val] = v
		} else {
			delete(e.locals, o.Val)
		}
	case rtl.OMem, rtl.OGlobal:
		clear(e.locals)
	}
}

// step simulates one instruction's effect on the environment.
func (e *constEnv) step(in *rtl.Inst) {
	switch in.Kind {
	case rtl.Move:
		v, ok := e.value(in.Src)
		e.assign(in.Dst, v, ok)
	case rtl.Bin:
		x, okx := e.value(in.Src)
		y, oky := e.value(in.Src2)
		if okx && oky {
			e.assign(in.Dst, in.BOp.Eval(x, y), true)
		} else {
			e.assign(in.Dst, 0, false)
		}
	case rtl.Un:
		x, ok := e.value(in.Src)
		if ok {
			e.assign(in.Dst, in.UOp.Eval(x), true)
		} else {
			e.assign(in.Dst, 0, false)
		}
	case rtl.Call:
		// The callee runs in its own frame (registers are per-frame) but
		// may write any addressable local or global through a pointer.
		clear(e.locals)
		if in.Dst.Kind != rtl.ONone {
			e.assign(in.Dst, 0, false)
		}
	}
	// Cmp, Br, Jmp, IJmp, Arg, Ret, Nop: no tracked effect.
}

// countDecidedEdges is the DUPS profitability metric: the number of
// incoming edges on which a foldable test block's branch outcome is already
// known (constant operands or a dominating test on the same comparison).
// Each applied fold consumes its decided edge, so the count normally falls
// monotonically; cascaded folds through freshly duplicated blocks may
// create new decided edges, which the budget's futility cutoff and the RTL
// ceiling keep bounded.
func countDecidedEdges(f *cfg.Func) int {
	n := 0
	for _, p := range f.Blocks {
		n += decidedOut(f, p)
	}
	return n
}

// decidedOut counts the decided edges out of p.
func decidedOut(f *cfg.Func, p *cfg.Block) int {
	n := 0
	for _, e := range edgesOf(f, p) {
		if e.t == p || !foldable(f, e.t) {
			continue
		}
		if d, _, _ := decideEdge(p, e.t, e.kind); d {
			n++
		}
	}
	return n
}

// decidedAround counts the decided edges a fold out of p can change: the
// edges out of p, out of its copy cp (nil before the fold), and into p from
// every other block. The count is exact because a fold changes only p's
// instructions and p's layout successor. The copy has a fresh label, so p
// is its only predecessor. A taken-edge copy goes after a last block that
// cannot fall through (foldFrom's precondition), so that block's edges
// stay as they were and it stays unfoldable. Edges into p change with
// foldable(p), which reads p's terminator and successor; edges into other
// blocks depend on neither.
func decidedAround(f *cfg.Func, p, cp *cfg.Block) int {
	n := decidedOut(f, p)
	if cp != nil {
		n += decidedOut(f, cp)
	}
	if !foldable(f, p) {
		return n
	}
	// Edges into p in edgesOf's shapes, found by label and position rather
	// than through edgesOf, whose target lookups would make this scan
	// quadratic.
	for _, q := range f.Blocks {
		if q == p || q == cp {
			continue
		}
		qt := q.Term()
		if qt != nil && (qt.Kind == rtl.Jmp || qt.Kind == rtl.Br) && qt.Target == p.Label {
			kind := tv.EdgeJump
			if qt.Kind == rtl.Br {
				kind = tv.EdgeBrTaken
			}
			if d, _, _ := decideEdge(q, p, kind); d {
				n++
			}
		}
		if q.Index+1 == p.Index && (qt == nil || qt.Kind == rtl.Br) {
			if d, _, _ := decideEdge(q, p, tv.EdgeFall); d {
				n++
			}
		}
	}
	return n
}
