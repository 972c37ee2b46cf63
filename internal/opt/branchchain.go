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
// Each merge's edge lists go back to the function's Scratch, so a chain of
// merges reuses one set of buffers.
func MergeBlocks(f *cfg.Func) bool {
	changed := false
	for {
		e := cfg.ComputeEdges(f)
		merged := false
		for _, b := range f.Blocks {
			succs := e.Succs[b.Index]
			if len(succs) != 1 {
				continue
			}
			s := succs[0]
			if s == b || s.Index == 0 || len(e.Preds[s.Index]) != 1 {
				continue
			}
			if t := b.Term(); t != nil && t.Kind != rtl.Jmp {
				continue // Br/IJmp/Ret with a single successor: leave alone
			}
			// Drop b's jump (if any) and inline s.
			if t := b.Term(); t != nil {
				// b jumps to s. When s does not directly follow b, merging
				// relocates s's instructions to b's position — sound only
				// if s cannot fall through (it ends in a jump, indirect
				// jump or return). Otherwise the fall-through edge would
				// silently retarget to b's positional successor.
				if s.Index != b.Index+1 {
					st := s.Term()
					if st == nil || (st.Kind != rtl.Jmp && st.Kind != rtl.IJmp && st.Kind != rtl.Ret) {
						continue
					}
				}
				b.Insts = b.Insts[:len(b.Insts)-1]
			} else if s.Index != b.Index+1 {
				continue // fall-through must be positional
			}
			b.Insts = append(b.Insts, s.Insts...)
			f.Blocks = slices.Delete(f.Blocks, s.Index, s.Index+1)
			f.Renumber()
			merged = true
			changed = true
			break
		}
		e.Release()
		if !merged {
			return changed
		}
	}
}

// DeadCodeElimination removes unreachable blocks and is re-run after every
// structural change, per the paper's Figure 3 ordering.
func DeadCodeElimination(f *cfg.Func) bool {
	return cfg.RemoveUnreachable(f)
}
