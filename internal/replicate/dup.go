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
// (the algorithms' central safety property, step 6 of the paper); otherwise
// — or always, under the ForceRollback fault injection — the undo log rolls
// the function back byte-identically and applyGuarded reports false.
func applyGuarded(f *cfg.Func, opts Options, edit func(*undoLog)) bool {
	u := beginUndo(f)
	edit(u)
	if opts.ForceRollback || (!cfg.IsReducible(f) && !opts.ForceKeepIrreducible) {
		u.rollback()
		return false
	}
	return true
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
	opts   Options
	reps   int
	futile int
	best   int
}

// newBudget opens a budget for one pass whose profitability metric reads
// metric when the pass starts.
func newBudget(opts Options, metric int) *budget {
	return &budget{opts: opts, best: metric}
}

// exhausted reports whether the pass must stop: duplication bound reached,
// function grown past its RTL ceiling, or the futility cutoff tripped.
func (g *budget) exhausted(f *cfg.Func) bool {
	return g.reps >= maxReplications ||
		g.futile >= maxFutile ||
		f.NumRTLs() > g.opts.maxFuncRTLs()
}

// spent accounts one applied duplication, after which the pass's
// profitability metric reads now, for the futility cutoff.
func (g *budget) spent(now int) {
	g.reps++
	if now < g.best {
		g.best = now
		g.futile = 0
	} else {
		g.futile++
	}
}
