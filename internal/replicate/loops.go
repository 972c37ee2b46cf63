package replicate

import (
	"repro/internal/cfg"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/tv"
)

// LOOPS is the conventional loop-condition replication the paper measures
// as its middle optimization level: an unconditional jump preceding a loop
// or at the end of a loop, whose target is the loop's (pure) termination
// test, is replaced by a copy of the test with the condition adjusted so
// the copy falls through to the block positionally following the jump.
// Depending on the original layout this removes one jump at the loop entry
// or one jump per iteration. Like JUMPS and DUPS, each rotation runs under
// applyGuarded: it is kept only if the flow graph stays reducible, and a
// rollback ends the invocation. Of the options, LOOPS consults the Tracer,
// the certificate hook and the two fault injections; the Result carries
// the rotation counters.
func LOOPS(f *cfg.Func, opts Options) Result {
	var res Result
	for iter := 0; iter < 100; iter++ {
		if !rotateOne(f, opts, &res) {
			break
		}
		res.Changed = true
	}
	return res
}

// pureTestBlock reports whether h consists only of side-effect-free value
// computations feeding a comparison and conditional branch — the shape of a
// loop termination test that may be duplicated freely.
func pureTestBlock(h *cfg.Block) bool {
	n := len(h.Insts)
	if n < 2 {
		return false
	}
	t := h.Term()
	if t == nil || t.Kind != rtl.Br {
		return false
	}
	for i := 0; i < n-1; i++ {
		in := &h.Insts[i]
		switch in.Kind {
		case rtl.Cmp:
		case rtl.Move, rtl.Bin, rtl.Un:
			if in.Dst.IsMem() {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// rotateOne finds one qualifying jump and replaces it; returns false when
// none remains or the rotation was rolled back.
func rotateOne(f *cfg.Func, opts Options, res *Result) bool {
	e := cfg.ComputeEdges(f)
	d := cfg.ComputeDominators(e)
	loops := cfg.NaturalLoops(e, d)
	d.Release()
	defer e.Release()
	for _, p := range f.Blocks {
		t := p.Term()
		if t == nil || t.Kind != rtl.Jmp || p.Index+1 >= len(f.Blocks) {
			continue
		}
		h := f.BlockByLabel(t.Target)
		if h == nil {
			continue
		}
		// The target must be the (pure) termination test of a natural loop:
		// either its header (while-shape) or its bottom test (for-shape).
		l := cfg.InnermostLoopContaining(loops, h.Index)
		if l == nil || !pureTestBlock(h) {
			continue
		}
		// The test block must have exactly one in-loop and one exit
		// successor.
		succs := e.Succs[h.Index]
		if len(succs) != 2 {
			continue
		}
		var inLoop, exit *cfg.Block
		for _, s := range succs {
			if l.Contains(s.Index) {
				inLoop = s
			} else {
				exit = s
			}
		}
		if inLoop == nil || exit == nil {
			continue
		}
		// LOOPS only handles the conventional shapes: the jump precedes the
		// loop (jump to the test at the bottom) or is the loop's latch.
		next := f.Blocks[p.Index+1]
		hterm := h.Term()
		var branchTo *cfg.Block
		switch next {
		case inLoop:
			branchTo = exit // copy falls into the body, branches out on exit
		case exit:
			branchTo = inLoop // copy falls out of the loop, branches back in
		default:
			continue
		}
		// Build the replicated, adjusted test.
		rep := make([]rtl.Inst, 0, len(h.Insts))
		for i := 0; i < len(h.Insts)-1; i++ {
			rep = append(rep, h.Insts[i].Clone())
		}
		br := hterm.Clone()
		// The original branch transfers to hterm.Target and falls through
		// to h's positional successor. Express "go to branchTo" as the
		// taken direction.
		if hterm.Target == branchTo.Label {
			// Same direction: keep the relation.
		} else {
			br.BrRel = br.BrRel.Negate()
			br.Target = branchTo.Label
		}
		rep = append(rep, br)
		cand := []obs.Candidate{{Kind: obs.KindRotation, RTLs: len(rep), Blocks: 1}}
		jumpBlock, jumpTarget := p.Label, t.Target
		kept := applyGuarded(f, opts, func(u *undoLog) {
			u.truncated(p)
			// A fresh array keeps the jump in the saved slice for rollback.
			n := len(p.Insts) - 1
			p.Insts = append(p.Insts[:n:n], rep...)
		})
		if kept == nil {
			res.Rollbacks++
			cand[0].RolledBack = true
			emitDecision(opts, f, jumpBlock, jumpTarget, cand, obs.OutRolledBack)
			return false
		}
		releaseFlow(kept)
		res.Replications++
		res.RTLsCopied += len(rep)
		if opts.OnCertificate != nil {
			opts.OnCertificate(f, &tv.Certificate{
				Kind: tv.KindRotation, Func: f.Name,
				Block: jumpBlock, Target: jumpTarget, CopyLen: len(rep),
			})
		}
		cand[0].Applied = true
		emitDecision(opts, f, jumpBlock, jumpTarget, cand, obs.OutApplied)
		return true
	}
	return false
}
