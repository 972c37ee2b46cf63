// Package opt implements the standard VPO optimizations of the paper's
// Figure 3: branch chaining, dead code elimination, constant folding
// (including at conditional branches), common subexpression elimination,
// dead variable elimination, code motion, strength reduction, instruction
// selection and register allocation, plus SPARC delay-slot filling.
//
// All passes operate on the cfg/rtl representation shared with the
// code-replication algorithms in internal/replicate.
package opt

import (
	"math/bits"

	"repro/internal/cfg"
	"repro/internal/rtl"
)

// ccReg is a pseudo-register representing the condition code in liveness
// analysis: Cmp defines it, Br uses it. The front end always emits a Cmp and
// its Br in the same block, and every pass preserves that pairing.
const ccReg rtl.Reg = -100

// instUses appends the registers (and CC pseudo-register) read by in.
func instUses(in *rtl.Inst, dst []rtl.Reg) []rtl.Reg {
	dst = in.UsedRegs(dst)
	if in.Kind == rtl.Br {
		dst = append(dst, ccReg)
	}
	return dst
}

// instDef returns the register defined by in (RegNone if none). Cmp defines
// the CC pseudo-register.
func instDef(in *rtl.Inst) rtl.Reg {
	if in.Kind == rtl.Cmp {
		return ccReg
	}
	return in.DefReg()
}

// The liveness universe maps every register a function can mention to a
// dense bit index: the CC pseudo-register first, then the machine registers
// (FP/SP/RV and the allocatable file — at most machSpan of them, far above
// any machine model's count), then the virtual registers in allocation
// order.
const (
	ccIndex  = 0
	machBase = 1
	machSpan = 64
	virtBase = machBase + machSpan
)

// regIndex returns r's dense bit index.
func regIndex(r rtl.Reg) int {
	switch {
	case r == ccReg:
		return ccIndex
	case r >= rtl.VRegBase:
		return virtBase + int(r-rtl.VRegBase)
	default:
		return machBase + int(r)
	}
}

// indexReg inverts regIndex.
func indexReg(i int) rtl.Reg {
	switch {
	case i == ccIndex:
		return ccReg
	case i >= virtBase:
		return rtl.VRegBase + rtl.Reg(i-virtBase)
	default:
		return rtl.Reg(i - machBase)
	}
}

// RegSet is a register set stored as a dense bitset (see regIndex for the
// layout). The zero value is an empty set that grows on first Add or
// UnionWith. Sets returned by ComputeLiveness alias one backing array and
// become invalid when the Liveness is Released.
type RegSet struct {
	words []uint64
}

// Has reports whether r is in the set.
func (s RegSet) Has(r rtl.Reg) bool {
	i := regIndex(r)
	w := i >> 6
	return w < len(s.words) && s.words[w]&(1<<(uint(i)&63)) != 0
}

// Add inserts r, growing the set if needed.
func (s *RegSet) Add(r rtl.Reg) {
	i := regIndex(r)
	w := i >> 6
	for w >= len(s.words) {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << (uint(i) & 63)
}

// Remove deletes r from the set.
func (s *RegSet) Remove(r rtl.Reg) {
	i := regIndex(r)
	w := i >> 6
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(i) & 63)
	}
}

// Clear empties the set, keeping its capacity.
func (s *RegSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// CopyFrom makes s an exact copy of o, reusing s's storage when possible.
func (s *RegSet) CopyFrom(o RegSet) {
	if cap(s.words) < len(o.words) {
		s.words = make([]uint64, len(o.words))
	} else {
		s.words = s.words[:len(o.words)]
	}
	copy(s.words, o.words)
}

// UnionWith adds every register of o to s.
func (s *RegSet) UnionWith(o RegSet) {
	for len(s.words) < len(o.words) {
		s.words = append(s.words, 0)
	}
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// Len returns the number of registers in the set.
func (s RegSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls fn for every member in increasing dense-index order: CC,
// then the machine registers, then the virtual registers, each in register
// order.
func (s RegSet) ForEach(fn func(rtl.Reg)) {
	for wi, w := range s.words {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			fn(indexReg(i))
			w &= w - 1
		}
	}
}

// Liveness holds per-block live-in/live-out register sets. All sets share
// one backing array borrowed from the function's Scratch arena; Release
// returns it for the next ComputeLiveness to reuse, after which the sets
// must not be used.
type Liveness struct {
	In  []RegSet
	Out []RegSet

	f       *cfg.Func
	backing []uint64
}

// Release returns the analysis' storage to the function's Scratch arena.
// Safe to call more than once.
func (lv *Liveness) Release() {
	if lv == nil || lv.backing == nil {
		return
	}
	lv.f.Scratch().PutWords(lv.backing)
	lv.backing = nil
	lv.In, lv.Out = nil, nil
}

// ComputeLiveness runs backward iterative liveness over the function's
// registers (including the CC pseudo-register). The per-block bitsets share
// a single scratch-arena allocation; the fixpoint itself allocates nothing.
func ComputeLiveness(f *cfg.Func, e *cfg.Edges) *Liveness {
	n := len(f.Blocks)
	nw := (virtBase + f.NVRegs + 63) / 64
	backing := f.Scratch().Words(4 * n * nw)
	// One header array feeds all four per-block set slices, so the whole
	// analysis costs three fixed allocations (the Liveness value, this
	// array, and the instUses scratch) regardless of function size.
	hdrs := make([]RegSet, 4*n)
	lv := &Liveness{
		In:      hdrs[:n:n],
		Out:     hdrs[n : 2*n : 2*n],
		f:       f,
		backing: backing,
	}
	gen := hdrs[2*n : 3*n : 3*n]
	kill := hdrs[3*n:]
	for i := 0; i < n; i++ {
		off := 4 * i * nw
		lv.In[i] = RegSet{words: backing[off : off+nw : off+nw]}
		lv.Out[i] = RegSet{words: backing[off+nw : off+2*nw : off+2*nw]}
		gen[i] = RegSet{words: backing[off+2*nw : off+3*nw : off+3*nw]}
		kill[i] = RegSet{words: backing[off+3*nw : off+4*nw : off+4*nw]}
	}
	var scratch []rtl.Reg
	for i, b := range f.Blocks {
		g, k := &gen[i], &kill[i]
		for ii := range b.Insts {
			in := &b.Insts[ii]
			scratch = instUses(in, scratch[:0])
			for _, r := range scratch {
				if !k.Has(r) {
					g.Add(r)
				}
			}
			if d := instDef(in); d != rtl.RegNone {
				k.Add(d)
			}
		}
		// The monotone fixpoint starts from In = gen, Out = empty.
		copy(lv.In[i].words, g.words)
	}
	changed := true
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			outw := lv.Out[i].words
			grew := false
			for _, s := range e.Succs[i] {
				inw := lv.In[s.Index].words
				for w := range outw {
					if nv := outw[w] | inw[w]; nv != outw[w] {
						outw[w] = nv
						grew = true
					}
				}
			}
			if !grew {
				continue
			}
			inw := lv.In[i].words
			genw, killw := gen[i].words, kill[i].words
			for w := range inw {
				if nv := genw[w] | outw[w]&^killw[w]; nv != inw[w] {
					inw[w] = nv
					changed = true
				}
			}
		}
	}
	return lv
}
