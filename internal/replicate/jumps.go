package replicate

import (
	"fmt"
	"time"

	"repro/internal/cfg"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/tv"
)

// Heuristic selects between the two candidate replication sequences of
// step 2 of the JUMPS algorithm.
type Heuristic uint8

// Heuristics for choosing a replication sequence.
const (
	// HeurShortest picks whichever candidate sequence replicates fewer
	// RTLs (the paper's guiding principle of minimal code growth).
	HeurShortest Heuristic = iota
	// HeurReturns prefers sequences ending in a return.
	HeurReturns
	// HeurLoops prefers sequences reconnecting to the fall-through block.
	HeurLoops
	// HeurFrequency estimates execution frequency statically: jumps inside
	// loops prefer the favoring-loops sequence (the rotation keeps the hot
	// path falling through), jumps outside loops prefer favoring returns
	// (separating cold exit paths); ties fall back to fewest RTLs.
	HeurFrequency
)

// String returns the wire name of the heuristic.
func (h Heuristic) String() string {
	switch h {
	case HeurShortest:
		return "shortest"
	case HeurReturns:
		return "returns"
	case HeurLoops:
		return "loops"
	case HeurFrequency:
		return "frequency"
	}
	return "heuristic(?)"
}

// ParseHeuristic converts a wire or CLI name to a Heuristic: "" or
// "shortest", "returns" or "loops". HeurFrequency has no name here; the
// tests and ablations that study it set it directly.
func ParseHeuristic(s string) (Heuristic, error) {
	switch s {
	case "", "shortest":
		return HeurShortest, nil
	case "returns":
		return HeurReturns, nil
	case "loops":
		return HeurLoops, nil
	}
	return HeurShortest, fmt.Errorf("replicate: unknown heuristic %q (want shortest, returns or loops)", s)
}

// CheckMaxSeq checks a wire or CLI value for Options.MaxSeqRTLs: 0 means
// no cap, and a negative cap is refused rather than read as a second
// spelling of 0.
func CheckMaxSeq(n int) error {
	if n < 0 {
		return fmt.Errorf("replicate: negative maxseq %d (want 0 for no cap, or a positive RTL count)", n)
	}
	return nil
}

// Options configures the JUMPS algorithm.
type Options struct {
	// Heuristic picks between favoring-returns and favoring-loops
	// candidates. The non-preferred candidate is still attempted when the
	// preferred one fails the reducibility check (step 6).
	Heuristic Heuristic
	// MaxSeqRTLs caps the replicated RTLs per jump (0 = unlimited); the
	// paper's §6 suggests this to curb code growth for small caches.
	MaxSeqRTLs int
	// AllowIndirect enables the §6 extension: a block ending in an
	// indirect jump may terminate a replication sequence.
	AllowIndirect bool
	// NoLoopCompletion disables step 3 (whole-natural-loop inclusion);
	// used for ablation only — expect more reducibility rollbacks.
	NoLoopCompletion bool
	// MaxFuncRTLs stops replication once a function reaches this many RTLs
	// (0 = default 20000); a safety valve against pathological growth.
	MaxFuncRTLs int
	// Tracer, when non-nil, receives one obs.EvDecision event per jump
	// considered: the candidate sequences with their RTL costs, which were
	// rolled back, and the outcome.
	Tracer obs.Tracer
	// ForceKeepIrreducible is a fault-injection switch for the differential
	// oracle's self-test (internal/difftest, cmd/fuzzjump -inject): when
	// set, step 6 keeps a splice even though it made the flow graph
	// irreducible, instead of rolling it back. Never set it outside tests —
	// it deliberately breaks the algorithm's central safety property.
	ForceKeepIrreducible bool
	// ForceRollback is the complementary fault injection: when set, every
	// guarded duplication is rolled back as if the reducibility check had
	// failed, exercising the undo log's byte-identical restore on every
	// attempt. Never set it outside tests.
	ForceRollback bool
	// OnCertificate, when non-nil, receives one translation-validation
	// certificate per *applied* duplication, invoked synchronously right
	// after the edit is kept — rolled-back candidates emit nothing — with
	// the function in exactly the state the certificate describes. The
	// pipeline's TV mode installs a validator here (see
	// pipeline.Config.TV). Certificate construction is skipped entirely
	// when the hook is nil, keeping the hot path allocation-free.
	OnCertificate func(*cfg.Func, *tv.Certificate)
}

// Result reports what one replication invocation (JUMPS or LOOPS) did to a
// function. Counters accumulate across the invocation's internal sweeps.
type Result struct {
	// Changed reports whether the function was modified at all.
	Changed bool
	// Replications is the number of jumps replaced by replicated code.
	Replications int
	// JumpsDeleted counts the trivial case: jumps to the positionally next
	// block, removed without copying anything.
	JumpsDeleted int
	// Rollbacks counts candidate splices undone by the reducibility check
	// (step 6).
	Rollbacks int
	// RTLsCopied is the total size of all applied replication sequences —
	// the function's code growth due to replication before cleanup passes.
	RTLsCopied int
	// BranchesFolded counts conditional branches eliminated on a duplicated
	// edge by the DUPS level's conditional-elimination pass.
	BranchesFolded int
}

// Merge accumulates o into r (used by the pipeline to aggregate over
// functions and iterations).
func (r *Result) Merge(o Result) {
	r.Changed = r.Changed || o.Changed
	r.Replications += o.Replications
	r.JumpsDeleted += o.JumpsDeleted
	r.Rollbacks += o.Rollbacks
	r.RTLsCopied += o.RTLsCopied
	r.BranchesFolded += o.BranchesFolded
}

func (o Options) maxFuncRTLs() int {
	if o.MaxFuncRTLs == 0 {
		return 20000
	}
	return o.MaxFuncRTLs
}

// maxReplications bounds the duplications one invocation applies.
const maxReplications = 500

// jumpKey identifies one unconditional jump for the per-invocation
// blacklist of failed replications.
type jumpKey struct {
	block  rtl.Label
	target rtl.Label
}

// CountJumps returns the static number of unconditional (direct) jumps:
// the paper's objective. JUMPS replication and the pipeline's Figure-3
// loop count progress by it — a replication only counts while the
// function's jump count keeps falling.
func CountJumps(f *cfg.Func) int {
	n := 0
	for _, b := range f.Blocks {
		for ii := range b.Insts {
			if b.Insts[ii].Kind == rtl.Jmp {
				n++
			}
		}
	}
	return n
}

// JUMPS applies the generalized code-replication algorithm to f until no
// further unconditional jump can be replaced, the growth budget is
// exhausted, or progress stalls. The Result reports whether anything
// changed along with per-function replication counters. Unreachable blocks
// may remain; callers run dead code elimination afterwards, per Figure 3.
func JUMPS(f *cfg.Func, opts Options) Result { return jumps(f, opts, oracleFinder, nil) }

// jumpsPass is one JUMPS invocation over one function: its growth budget,
// the blacklist of jumps whose replication failed, and its counters.
type jumpsPass struct {
	f    *cfg.Func
	opts Options
	// finder builds step 1's path finder over each sweep's snapshot.
	finder func(*graphSnapshot) pathFinder
	// visit, when non-nil, is called at every jump that reaches step 2
	// with the flow analysis the sweep holds and the loops computed from
	// it.
	visit     func(d *cfg.Dominators, loops []*cfg.Loop)
	blacklist map[jumpKey]bool
	g         *budget
	res       Result
}

// jumps is JUMPS with step 1's path finder and the visit hook supplied by
// the caller: the seams through which the tests run the Floyd–Warshall
// reference and check the flow analysis each sweep holds.
func jumps(f *cfg.Func, opts Options, finder func(*graphSnapshot) pathFinder, visit func(*cfg.Dominators, []*cfg.Loop)) Result {
	j := &jumpsPass{
		f: f, opts: opts, finder: finder, visit: visit,
		blacklist: map[jumpKey]bool{},
		g:         newBudget(f, opts, CountJumps(f)),
	}
	for !j.g.exhausted() {
		if j.sweep() == 0 {
			break
		}
		j.res.Changed = true
	}
	return j.res
}

// sweep builds the shortest-path engine once (step 1) and then walks the
// blocks replacing jumps (steps 2–6), reusing the engine for every lookup
// exactly as the paper describes for its matrix. Returns the number of
// replications made.
//
// Steps 3, 5 and 6 need the current flow graph's dominators and loops. The
// sweep holds one flow analysis of the function as it stands, computed
// when it starts, and replaces it only where the flow graph changes: a
// kept replication hands over the analysis its reducibility check computed
// on the post-edit graph. A rollback restores the function byte for byte,
// and a deleted jump to the positionally next block becomes a fall-through
// to that same block, so neither changes the graph the held analysis
// describes. Its loops are computed once, at the first jump that reaches
// step 2.
func (j *jumpsPass) sweep() int {
	f, opts, g, res := j.f, j.opts, j.g, &j.res
	d := cfg.ComputeDominators(cfg.ComputeEdges(f))
	defer func() { releaseFlow(d) }()
	// The loops (independent bitsets) of d, valid while haveLoops.
	var loops []*cfg.Loop
	haveLoops := false
	m := j.finder(snapshotGraph(f, d.E))
	// Label-space view of the engine: rows were assigned in block order at
	// snapshot time.
	rowOf := make(map[rtl.Label]int, len(f.Blocks))
	labelOf := make([]rtl.Label, len(f.Blocks))
	for i, b := range f.Blocks {
		rowOf[b.Label] = i
		labelOf[i] = b.Label
	}
	made := 0

	for bi := 0; bi < len(f.Blocks); bi++ {
		if g.exhausted() {
			break
		}
		b := f.Blocks[bi]
		t := b.Term()
		if t == nil || t.Kind != rtl.Jmp {
			continue
		}
		key := jumpKey{b.Label, t.Target}
		if j.blacklist[key] {
			continue
		}
		tgt := f.BlockByLabel(t.Target)
		if tgt == nil {
			continue
		}
		// A jump to the positionally next block is simply deleted.
		if tgt.Index == b.Index+1 {
			b.Insts = b.Insts[:len(b.Insts)-1]
			g.deletedJump()
			res.JumpsDeleted++
			if opts.OnCertificate != nil {
				opts.OnCertificate(f, &tv.Certificate{
					Kind: tv.KindJumpDelete, Func: f.Name,
					Block: key.block, Target: key.target,
				})
			}
			emitDecision(opts, f, key.block, key.target, nil, obs.OutDeleted)
			made++
			continue
		}
		// The engine only knows blocks that existed when it was built;
		// jumps into fresh copies wait for the next sweep.
		if _, ok := rowOf[tgt.Label]; !ok {
			continue
		}
		if !haveLoops {
			loops, haveLoops = cfg.NaturalLoops(d.E, d), true
		}
		if j.visit != nil {
			j.visit(d, loops)
		}

		cands := candidates(f, m, rowOf, labelOf, loops, opts, b, tgt)
		meta := candidateMeta(cands)
		applied := -1
		for ci, c := range cands {
			if kept := attemptReplication(f, loops, b.Index, c, opts); kept != nil {
				releaseFlow(d)
				d, haveLoops = kept, false
				applied = ci
				break
			}
			meta[ci].RolledBack = true
			res.Rollbacks++
			b = f.Blocks[bi]
		}
		if applied < 0 {
			j.blacklist[key] = true
			outcome := obs.OutRolledBack
			if len(cands) == 0 {
				outcome = obs.OutNoCandidates
			}
			emitDecision(opts, f, key.block, key.target, meta, outcome)
			continue
		}
		meta[applied].Applied = true
		res.Replications++
		res.RTLsCopied += cands[applied].rtls
		emitDecision(opts, f, key.block, key.target, meta, obs.OutApplied)
		made++
		g.spent(CountJumps(f))
	}
	return made
}

// candidate is one possible replication sequence for a jump.
type candidate struct {
	seq []rtl.Label // block labels in replica order
	// fallsTo is the label execution reaches after the last replica block
	// by fall-through (favoring loops), or NoLabel when the sequence ends
	// in a return / indirect jump (favoring returns).
	fallsTo rtl.Label
	rtls    int
	// kind and completed describe the candidate for the decision log:
	// obs.KindReturns or obs.KindLoops, and whether step 3 pulled a whole
	// natural loop into the sequence.
	kind      string
	completed bool
}

// candidateMeta converts candidates to their telemetry descriptions.
func candidateMeta(cands []candidate) []obs.Candidate {
	if len(cands) == 0 {
		return nil
	}
	meta := make([]obs.Candidate, len(cands))
	for i, c := range cands {
		meta[i] = obs.Candidate{Kind: c.kind, RTLs: c.rtls, Blocks: len(c.seq), LoopCompleted: c.completed}
	}
	return meta
}

// emitDecision reports one considered jump to the configured tracer.
func emitDecision(opts Options, f *cfg.Func, block, target rtl.Label, meta []obs.Candidate, outcome string) {
	if opts.Tracer == nil {
		return
	}
	opts.Tracer.Emit(&obs.Event{
		Type: obs.EvDecision, Func: f.Name,
		Block: block.String(), Target: target.String(),
		Heuristic: opts.Heuristic.String(), Candidates: meta, Outcome: outcome,
		// det:allow nodeterminism — decision-log timestamp, not compiler output.
		TimeNS: time.Now().UnixNano(),
	})
}

// candidates computes the step-2 options for replacing b's jump to tgt,
// ordered by the configured heuristic: favoring returns (a path to a
// return) and favoring loops (a path reconnecting to the block positionally
// following b). Step 3 (natural-loop completion) is applied to each.
func candidates(f *cfg.Func, m pathFinder, rowOf map[rtl.Label]int, labelOf []rtl.Label,
	loops []*cfg.Loop, opts Options, b, tgt *cfg.Block) []candidate {
	var out []candidate
	tr := rowOf[tgt.Label]

	toLabels := func(rows []int) []rtl.Label {
		ls := make([]rtl.Label, len(rows))
		for i, r := range rows {
			ls[i] = labelOf[r]
		}
		return ls
	}
	// For each option, the bare path is tried first and the loop-completed
	// sequence (step 3) kept as the fallback: completion exists to repair
	// the two-entry loops that partial replication can create (Figure 1),
	// and when the bare path already yields a reducible graph — the common
	// rotation of a bottom-test loop — it would only inflate code size.
	addVariants := func(kind string, path []rtl.Label, fallsTo rtl.Label) {
		bare, okBare := finishCandidate(f, loops, opts, b, path, fallsTo, false)
		if okBare {
			bare.kind = kind
			out = append(out, bare)
		}
		if opts.NoLoopCompletion {
			return
		}
		full, okFull := finishCandidate(f, loops, opts, b, path, fallsTo, true)
		if okFull && (!okBare || len(full.seq) != len(bare.seq)) {
			full.kind = kind
			full.completed = true
			out = append(out, full)
		}
	}

	// Favoring returns: shortest path from tgt to any return block (or, in
	// the §6 extension, to an indirect-jump block).
	bestRet, bestRetDist := -1, inf
	for _, rb := range f.Blocks {
		term := rb.Term()
		if term == nil {
			continue
		}
		isEnd := term.Kind == rtl.Ret || opts.AllowIndirect && term.Kind == rtl.IJmp
		if !isEnd {
			continue
		}
		rr, known := rowOf[rb.Label]
		if !known {
			continue
		}
		var dd int
		if rb == tgt {
			dd = m.cost(tr)
		} else if d := m.dist(tr, rr); d < inf {
			dd = d
		} else {
			continue
		}
		if dd < bestRetDist {
			bestRet, bestRetDist = rr, dd
		}
	}
	if bestRet >= 0 {
		if p := m.path(tr, bestRet); p != nil {
			addVariants(obs.KindReturns, toLabels(p), rtl.NoLabel)
		}
	}

	// Favoring loops: shortest path from tgt to the block positionally
	// following b, replicating everything but that final block.
	if b.Index+1 < len(f.Blocks) {
		fb := f.Blocks[b.Index+1]
		if fr, known := rowOf[fb.Label]; known && fb != tgt && m.dist(tr, fr) < inf {
			if p := m.path(tr, fr); len(p) >= 2 {
				addVariants(obs.KindLoops, toLabels(p[:len(p)-1]), fb.Label)
			}
		}
	}

	// Order by heuristic; the runner tries candidates in order, falling to
	// the next on a reducibility rollback. Within equal preference the
	// bare variant stays ahead of its loop-completed fallback because the
	// sort is stable and bare sequences are never longer.
	h := opts.Heuristic
	if h == HeurFrequency {
		if cfg.InnermostLoopContaining(loops, b.Index) != nil {
			h = HeurLoops
		} else {
			h = HeurReturns
		}
	}
	sortCandidates(out, h)
	return out
}

// sortCandidates stably orders candidates per the (already frequency-
// resolved) heuristic.
func sortCandidates(cs []candidate, h Heuristic) {
	less := func(a, b candidate) bool {
		switch h {
		case HeurReturns:
			if (a.fallsTo == rtl.NoLabel) != (b.fallsTo == rtl.NoLabel) {
				return a.fallsTo == rtl.NoLabel
			}
		case HeurLoops:
			if (a.fallsTo == rtl.NoLabel) != (b.fallsTo == rtl.NoLabel) {
				return a.fallsTo != rtl.NoLabel
			}
		}
		return a.rtls < b.rtls
	}
	// Insertion sort keeps it stable and the slices are tiny.
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && less(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// finishCandidate turns a path into a replication sequence, optionally
// applying step 3 (loop completion), and enforces the length cap.
func finishCandidate(f *cfg.Func, loops []*cfg.Loop, opts Options, b *cfg.Block, path []rtl.Label, fallsTo rtl.Label, complete bool) (candidate, bool) {
	seq := make([]rtl.Label, 0, len(path))
	inSeq := map[rtl.Label]bool{}
	appendBlock := func(l rtl.Label) {
		if !inSeq[l] {
			inSeq[l] = true
			seq = append(seq, l)
		}
	}
	prev := b
	for _, pl := range path {
		pb := f.BlockByLabel(pl)
		if pb == nil {
			return candidate{}, false
		}
		if inSeq[pl] {
			prev = pb
			continue
		}
		l := cfg.LoopHeaderOf(loops, pb)
		if l != nil && complete && !l.Contains(prev.Index) {
			// Step 3: pull the entire natural loop in, in positional order.
			// When this happens for the very first collected block, control
			// enters the replica by falling out of the jump block, so the
			// copy of the jump target must come first: rotate the segment
			// to start at the header. (Mid-path segments are entered via
			// explicitly retargeted branches, so positional order is fine.)
			var segment []rtl.Label
			for _, lb := range f.Blocks {
				if l.Contains(lb.Index) {
					segment = append(segment, lb.Label)
				}
			}
			if len(seq) == 0 {
				for si, sl := range segment {
					if sl == pl {
						rot := make([]rtl.Label, 0, len(segment))
						rot = append(rot, segment[si:]...)
						rot = append(rot, segment[:si]...)
						segment = rot
						break
					}
				}
			}
			for _, sl := range segment {
				appendBlock(sl)
			}
		} else {
			appendBlock(pl)
		}
		prev = pb
	}
	rtls := 0
	for _, l := range seq {
		rtls += len(f.BlockByLabel(l).Insts)
	}
	if opts.MaxSeqRTLs > 0 && rtls > opts.MaxSeqRTLs {
		return candidate{}, false
	}
	return candidate{seq: seq, fallsTo: fallsTo, rtls: rtls}, true
}

// attemptReplication performs steps 4–6 for one candidate: splice the
// copies in place of the jump, adjust control flow, redirect in-loop
// branches, and verify reducibility via the engine's guard, rolling
// everything back through the undo log on failure (see dup.go). It returns
// the guard's flow analysis of the kept edit, or nil after a rollback.
func attemptReplication(f *cfg.Func, loops []*cfg.Loop, bIdx int, c candidate, opts Options) *cfg.Dominators {
	b := f.Blocks[bIdx]
	// The certificate is built alongside the edit (splice fills in the
	// copies, the step-5 loop redirects append below) but emitted only if
	// the guard keeps it; a rolled-back candidate leaves no trace.
	var cert *tv.Certificate
	if opts.OnCertificate != nil {
		cert = &tv.Certificate{
			Kind: tv.KindReplication, Func: f.Name,
			Block: b.Label, Target: b.Term().Target, FallsTo: c.fallsTo,
		}
	}
	// Step 5 needs the membership of the loop the jump lives in, captured
	// by label before splicing invalidates indices.
	var loopLabels map[rtl.Label]bool
	if l := cfg.InnermostLoopContaining(loops, b.Index); l != nil {
		loopLabels = map[rtl.Label]bool{}
		l.ForEachBlock(func(bi int) {
			loopLabels[f.Blocks[bi].Label] = true
		})
	}
	kept := applyGuarded(f, opts, func(u *undoLog) {
		u.truncated(b)
		firstCopy, inserted := splice(f, b, c, cert)
		u.insertedBlocks(bIdx, inserted)
		// Step 5: preserve loop structure around partially copied loops.
		if loopLabels != nil {
			for _, r := range redirectLoopBranches(f, loopLabels, firstCopy) {
				u.retargeted(r.inst, r.old)
				if cert != nil {
					cert.Retargets = append(cert.Retargets, tv.Retarget{
						Block: r.block, Old: r.old, New: r.inst.Target,
					})
				}
			}
		}
	})
	if kept != nil && cert != nil {
		opts.OnCertificate(f, cert)
	}
	return kept
}

// splice replaces b's terminating jump with copies of the candidate blocks
// (step 4): fresh labels, intra-replica retargeting with forward
// preference, branch reversal where the replica's layout requires it, and
// elimination of jumps that became fall-throughs. It returns the mapping
// from each original block label to the label of its first copy, and the
// number of blocks inserted after b (for the rollback undo log). A non-nil
// cert collects the copy pairs and auxiliary jump blocks for translation
// validation.
func splice(f *cfg.Func, b *cfg.Block, c candidate, cert *tv.Certificate) (map[rtl.Label]rtl.Label, int) {
	n := len(c.seq)
	copies := make([]*cfg.Block, n)
	// copyOf[label] lists replica indices holding copies of that label.
	copyOf := map[rtl.Label][]int{}
	originals := make([]*cfg.Block, n)
	for i, l := range c.seq {
		orig := f.BlockByLabel(l)
		originals[i] = orig
		nb := orig.Clone()
		nb.Label = f.NewLabel()
		copies[i] = nb
		copyOf[orig.Label] = append(copyOf[orig.Label], i)
	}
	// Record original -> first-copy labels now, before fix-up inserts
	// auxiliary jump blocks into the copies slice.
	first := make(map[rtl.Label]rtl.Label, n)
	for i, orig := range originals {
		if _, ok := first[orig.Label]; !ok {
			first[orig.Label] = copies[i].Label
		}
	}
	if cert != nil {
		cert.Copies = make([]tv.CopyPair, n)
		for i, orig := range originals {
			cert.Copies[i] = tv.CopyPair{Orig: orig.Label, Copy: copies[i].Label}
		}
	}
	// mapped resolves a control-flow target from replica position i:
	// forward copy first, then backward copy, then the original.
	mapped := func(i int, target rtl.Label) rtl.Label {
		idxs := copyOf[target]
		if len(idxs) == 0 {
			return target
		}
		for _, j := range idxs {
			if j > i {
				return copies[j].Label
			}
		}
		return copies[idxs[len(idxs)-1]].Label
	}

	// Auxiliary jump blocks created during fix-up, keyed by the replica
	// position they follow; spliced into the final layout afterwards so
	// positions stay stable during the sweep.
	aux := map[int][]*cfg.Block{}
	for i, nb := range copies {
		orig := originals[i]
		// wantNext is what the replica falls into after this block.
		wantNext := rtl.NoLabel
		if i+1 < n {
			wantNext = copies[i+1].Label
		} else if c.fallsTo != rtl.NoLabel {
			wantNext = c.fallsTo
		}
		term := nb.Term()
		switch {
		case term == nil:
			// Original fell through to its positional successor.
			var ft rtl.Label = rtl.NoLabel
			if orig.Index+1 < len(f.Blocks) {
				ft = f.Blocks[orig.Index+1].Label
			}
			tgt := mapped(i, ft)
			if tgt != wantNext && ft != rtl.NoLabel {
				nb.Insts = append(nb.Insts, rtl.Inst{Kind: rtl.Jmp, Target: tgt})
			}
		case term.Kind == rtl.Jmp:
			tgt := mapped(i, term.Target)
			if tgt == wantNext {
				nb.Insts = nb.Insts[:len(nb.Insts)-1]
			} else {
				term.Target = tgt
			}
		case term.Kind == rtl.Br:
			var ft rtl.Label = rtl.NoLabel
			if orig.Index+1 < len(f.Blocks) {
				ft = f.Blocks[orig.Index+1].Label
			}
			tTaken := mapped(i, term.Target)
			tFall := mapped(i, ft)
			switch {
			case tFall == wantNext:
				term.Target = tTaken
			case tTaken == wantNext && tFall != rtl.NoLabel:
				// Reverse the branch so the replica's layout falls through
				// (step 4's branch reversal).
				term.BrRel = term.BrRel.Negate()
				term.Target = tFall
			default:
				// Neither side matches the layout: keep the branch and add
				// an explicit jump block for the fall-through edge, spliced
				// in after this copy once the fix-up sweep finishes.
				term.Target = tTaken
				if ft != rtl.NoLabel {
					ab := &cfg.Block{
						Label: f.NewLabel(),
						Insts: []rtl.Inst{{Kind: rtl.Jmp, Target: tFall}},
					}
					aux[i] = append(aux[i], ab)
					if cert != nil {
						cert.Aux = append(cert.Aux, ab.Label)
					}
				}
			}
		case term.Kind == rtl.IJmp:
			for ti := range term.Table {
				term.Table[ti] = mapped(i, term.Table[ti])
			}
		case term.Kind == rtl.Ret:
			// Nothing to adjust.
		}
	}

	// Delete the jump and splice the copies right after b; execution falls
	// from b into the first copy, and from the last copy into c.fallsTo
	// (which is exactly the block positionally after b) when favoring
	// loops.
	b.Insts = b.Insts[:len(b.Insts)-1]
	final := make([]*cfg.Block, 0, len(copies)+len(aux))
	for i, nb := range copies {
		final = append(final, nb)
		final = append(final, aux[i]...)
	}
	f.InsertBlocksAfter(b.Index, final...)
	return first, len(final)
}

// loopRedirect is one step-5 rewrite: the retarget record for the undo
// log plus the owning block's label for the certificate.
type loopRedirect struct {
	inst  *rtl.Inst
	old   rtl.Label
	block rtl.Label
}

// redirectLoopBranches implements step 5: when the replication was
// initiated from inside a natural loop and copied part of that loop, the
// conditional branches of uncopied loop blocks that target copied blocks
// are redirected to the copies, preventing partially overlapping loops.
// It returns the rewrites it made so a rollback can reverse them (and the
// certificate can list them).
func redirectLoopBranches(f *cfg.Func, loopLabels map[rtl.Label]bool, firstCopy map[rtl.Label]rtl.Label) []loopRedirect {
	var undo []loopRedirect
	for _, x := range f.Blocks {
		if !loopLabels[x.Label] {
			continue
		}
		if _, wasCopied := firstCopy[x.Label]; wasCopied {
			continue
		}
		t := x.Term()
		if t == nil || t.Kind != rtl.Br {
			continue
		}
		if nc, ok := firstCopy[t.Target]; ok {
			undo = append(undo, loopRedirect{inst: t, old: t.Target, block: x.Label})
			t.Target = nc
		}
	}
	return undo
}
