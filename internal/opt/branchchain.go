package opt

import (
	"slices"

	"repro/internal/cfg"
	"repro/internal/rtl"
)

// chainTarget follows empty blocks and jump-only blocks from label l to the
// final effective destination.
func chainTarget(f *cfg.Func, l rtl.Label) rtl.Label {
	seen := map[rtl.Label]bool{}
	for {
		if seen[l] {
			return l // cycle (empty infinite loop); leave as-is
		}
		seen[l] = true
		b := f.BlockByLabel(l)
		if b == nil {
			return l
		}
		switch {
		case len(b.Insts) == 0:
			// Empty block: falls through to the positionally next block.
			if b.Index+1 >= len(f.Blocks) {
				return l
			}
			l = f.Blocks[b.Index+1].Label
		case len(b.Insts) == 1 && b.Insts[0].Kind == rtl.Jmp:
			l = b.Insts[0].Target
		default:
			return l
		}
	}
}

// BranchChaining retargets branches, jumps and jump-table entries that lead
// to empty or jump-only blocks directly at their final destination. Reports
// whether anything changed.
func BranchChaining(f *cfg.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		for ii := range b.Insts {
			in := &b.Insts[ii]
			switch in.Kind {
			case rtl.Jmp, rtl.Br:
				if t := chainTarget(f, in.Target); t != in.Target {
					in.Target = t
					changed = true
				}
			case rtl.IJmp:
				for ti, l := range in.Table {
					if t := chainTarget(f, l); t != l {
						in.Table[ti] = t
						changed = true
					}
				}
			}
		}
	}
	return changed
}

// MergeBlocks coalesces straight-line block pairs: when block b transfers
// only to s (fall-through or jump) and s's only predecessor is b, s's
// instructions are appended to b and s is removed. This welds replicated
// sequences onto their origin so that local value numbering sees across the
// seam (the paper's §3.3.2 interactions). Reports whether anything changed.
//
// Each merge takes the lowest block that can absorb its successor, as a
// rescan from block 0 with fresh edges after every merge would. The edges
// are computed once per call and patched at each merge (see merge), and
// the scan resumes from the lowest block whose merge test the merge can
// change; every block below it was not mergeable and still is not.
func MergeBlocks(f *cfg.Func) bool {
	e := cfg.ComputeEdges(f)
	defer e.Release()
	changed := false
	for bi := 0; bi < len(f.Blocks); {
		b := f.Blocks[bi]
		s := mergeSucc(f, e, b)
		if s == nil {
			bi++
			continue
		}
		bi = merge(f, e, b, s)
		changed = true
	}
	return changed
}

// mergeSucc returns the block b can absorb, or nil: b's only successor,
// when b is that block's only predecessor and the merge keeps every
// transfer where it was.
func mergeSucc(f *cfg.Func, e *cfg.Edges, b *cfg.Block) *cfg.Block {
	succs := e.Succs[b.Index]
	if len(succs) != 1 {
		return nil
	}
	s := succs[0]
	if s == b || s.Index == 0 || len(e.Preds[s.Index]) != 1 {
		return nil
	}
	t := b.Term()
	switch {
	case t == nil:
		if s.Index != b.Index+1 {
			return nil // fall-through must be positional
		}
	case t.Kind != rtl.Jmp:
		return nil // Br/IJmp/Ret with a single successor: leave alone
	case s.Index != b.Index+1:
		// b jumps to s. When s does not directly follow b, merging
		// relocates s's instructions to b's position — sound only if s
		// cannot fall through (it ends in a jump, indirect jump or
		// return). Otherwise the fall-through edge would silently
		// retarget to b's positional successor.
		st := s.Term()
		if st == nil || (st.Kind != rtl.Jmp && st.Kind != rtl.IJmp && st.Kind != rtl.Ret) {
			return nil
		}
	}
	return s
}

// merge drops b's jump (if any), appends s's instructions to b and deletes
// s, patching e to the edges a rebuild would compute: b takes s's
// successor list, each successor of s trades predecessor s for b (so no
// surviving block's predecessor count changes), and s leaves the lists
// together with f.Blocks. It returns the index to resume the scan from:
// the lowest of the three blocks whose merge test the merge can change —
// b itself; b's single predecessor, whose test reads b's terminator (now
// s's) when b is not its layout successor; and the block now in front of
// s's old layout successor, whose layout neighbour changed.
func merge(f *cfg.Func, e *cfg.Edges, b, s *cfg.Block) int {
	if b.Term() != nil {
		b.Insts = b.Insts[:len(b.Insts)-1]
	}
	b.Insts = append(b.Insts, s.Insts...)
	e.Succs[b.Index] = e.Succs[s.Index]
	for _, x := range e.Succs[s.Index] {
		preds := e.Preds[x.Index]
		for k := range preds {
			if preds[k] == s {
				preds[k] = b
			}
		}
	}
	si := s.Index
	f.Blocks = slices.Delete(f.Blocks, si, si+1)
	e.Succs = slices.Delete(e.Succs, si, si+1)
	e.Preds = slices.Delete(e.Preds, si, si+1)
	f.Renumber()
	from := min(b.Index, si-1)
	if preds := e.Preds[b.Index]; len(preds) == 1 {
		from = min(from, preds[0].Index)
	}
	return from
}

// DeadCodeElimination removes unreachable blocks and is re-run after every
// structural change, per the paper's Figure 3 ordering.
func DeadCodeElimination(f *cfg.Func) bool {
	return cfg.RemoveUnreachable(f)
}
