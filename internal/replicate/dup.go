// Package replicate implements the code-duplication optimizations of the
// pipeline: the paper's LOOPS loop-condition rotation and generalized JUMPS
// replication (which remove unconditional jumps), and the DUPS level's
// conditional-jump elimination in the style of Breitner's "Conditional
// Elimination through Code Duplication" (which removes conditional branches
// whose outcome is already decided on an incoming path).
//
// All three policies run their edits under one reducibility guard,
// applyGuarded (this file): every speculative structural edit — splicing
// copied blocks, replacing a jump with a rotated test, retargeting
// branches — is recorded in an undo log, so a failed attempt rolls the
// function back byte-identically without cloning it. Each pass drives the
// shared growth budget (§5.2 conservatism: bounded replications, a
// function-size ceiling, and a futility cutoff) with its own static
// profitability metric: JUMPS counts its jumps (CountJumps), DUPS its
// decided edges (countDecidedEdges).
package replicate

import (
	"repro/internal/cfg"
	"repro/internal/rtl"
)

// undoLog records the structural edits of one speculative duplication so
// rollback can reverse them exactly. It is deliberately not a
// whole-function clone: a duplication only replaces a block's instruction
// slice (the old slice, and its backing array, stay intact), inserts fresh
// blocks at one position, retargets branch instructions in place, and
// advances the fresh-label counter — four edit kinds, each reversed
// precisely, restoring the function byte for byte.
type undoLog struct {
	f         *cfg.Func
	labelMark rtl.Label
	truncs    []trunc
	retargets []retarget
	// insertAt/insertN describe one run of blocks inserted after position
	// insertAt (insertN == 0 when nothing was inserted).
	insertAt, insertN int
}

// trunc records one block whose instruction slice was replaced. The edit
// must leave the saved slice's elements untouched: it either truncates
// (the removed terminator survives in the backing array past the new
// length) or builds the new slice in a fresh array.
type trunc struct {
	b     *cfg.Block
	saved []rtl.Inst
}

// retarget records one branch rewrite so the undo log can reverse it. The
// instruction pointer stays valid because nothing appends to the owning
// block's Insts between rewrite and rollback.
type retarget struct {
	inst *rtl.Inst
	old  rtl.Label
}

// beginUndo opens an undo log for f, capturing the fresh-label high-water
// mark so speculative labels are rewound on rollback.
func beginUndo(f *cfg.Func) *undoLog {
	return &undoLog{f: f, labelMark: f.LabelMark(), insertAt: -1}
}

// truncated records b's instruction slice before the edit replaces it
// (call before the edit).
func (u *undoLog) truncated(b *cfg.Block) {
	u.truncs = append(u.truncs, trunc{b: b, saved: b.Insts})
}

// retargeted records that inst's Target was old before the edit rewrote it.
func (u *undoLog) retargeted(inst *rtl.Inst, old rtl.Label) {
	u.retargets = append(u.retargets, retarget{inst: inst, old: old})
}

// insertedBlocks records that n fresh blocks were spliced in immediately
// after position at. One run per log — duplications insert their copies in
// a single InsertBlocksAfter call.
func (u *undoLog) insertedBlocks(at, n int) {
	u.insertAt, u.insertN = at, n
}

// rollback reverses every recorded edit in the safe order — branch targets
// first, then the inserted blocks, then the truncations, and finally the
// fresh-label counter — leaving the function byte-identical to the state
// beginUndo observed.
func (u *undoLog) rollback() {
	for _, r := range u.retargets {
		r.inst.Target = r.old
	}
	if u.insertN > 0 {
		f := u.f
		f.Blocks = append(f.Blocks[:u.insertAt+1], f.Blocks[u.insertAt+1+u.insertN:]...)
		f.Renumber()
	}
	for _, t := range u.truncs {
		t.b.Insts = t.saved
	}
	u.f.ResetLabels(u.labelMark)
}

// applyGuarded performs one speculative duplication: edit applies the
// structural change, recording everything it does into the fresh undo log
// it is handed. The edit is kept only if the flow graph remains reducible
// (the algorithms' central safety property, step 6 of the paper);
// otherwise — or always, under the ForceRollback fault injection — the
// undo log rolls the function back byte-identically and applyGuarded
// returns nil. A kept edit returns the flow analysis the check computed:
// the dominators of the post-edit flow graph, whose E holds its edges. The
// JUMPS sweep carries that analysis on to its next jump; every other caller
// hands it to releaseFlow.
func applyGuarded(f *cfg.Func, opts Options, edit func(*undoLog)) *cfg.Dominators {
	u := beginUndo(f)
	edit(u)
	if opts.ForceRollback {
		u.rollback()
		return nil
	}
	d := cfg.ComputeDominators(cfg.ComputeEdges(f))
	if !d.Reducible() && !opts.ForceKeepIrreducible {
		releaseFlow(d)
		u.rollback()
		return nil
	}
	return d
}

// releaseFlow returns a flow analysis — the dominators and the edges they
// were computed on — to the function's Scratch arena.
func releaseFlow(d *cfg.Dominators) {
	e := d.E
	d.Release()
	e.Release()
}

// maxFutile bounds consecutive duplications that fail to lower the pass's
// profitability metric; the paper notes that interactions must be
// "treated conservatively to avoid the potential of replication ad
// infinitum".
const maxFutile = 16

// budget tracks the §5.2 growth caps for one duplication pass over one
// function: a bound on applied duplications, a function-size ceiling, and
// the futility cutoff on the pass's profitability metric, a static count
// that the pass drives down. The pass supplies the metric's values: JUMPS
// recounts its jumps (CountJumps), DUPS keeps a running count of its
// decided edges (countDecidedEdges).
type budget struct {
	f      *cfg.Func
	opts   Options
	reps   int
	futile int
	best   int
	// rtls is the function's RTL count, kept current at the pass's
	// mutation points: recounted after each applied duplication (spent)
	// and lowered by one per deleted jump (deletedJump). Rollbacks restore
	// the function, so they leave it as it was.
	rtls int
}

// newBudget opens a budget for one pass over f whose profitability metric
// reads metric when the pass starts.
func newBudget(f *cfg.Func, opts Options, metric int) *budget {
	return &budget{f: f, opts: opts, best: metric, rtls: f.NumRTLs()}
}

// exhausted reports whether the pass must stop: duplication bound reached,
// function grown past its RTL ceiling, or the futility cutoff tripped.
func (g *budget) exhausted() bool {
	return g.reps >= maxReplications ||
		g.futile >= maxFutile ||
		g.rtls > g.opts.maxFuncRTLs()
}

// spent accounts one applied duplication, after which the pass's
// profitability metric reads now, for the futility cutoff.
func (g *budget) spent(now int) {
	g.reps++
	g.rtls = g.f.NumRTLs()
	if now < g.best {
		g.best = now
		g.futile = 0
	} else {
		g.futile++
	}
}

// deletedJump accounts one jump to the positionally next block, deleted
// without copying anything.
func (g *budget) deletedJump() { g.rtls-- }
