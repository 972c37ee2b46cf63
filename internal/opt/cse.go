package opt

import (
	"repro/internal/cfg"
	"repro/internal/machine"
	"repro/internal/rtl"
)

// opK is the canonical, comparable key for an operand. It replaces the
// fmt.Sprintf string keys the value numberer used to build for every
// instruction: a plain struct compares in a handful of instructions and
// allocates nothing. Fields that a kind does not use are left at their zero
// value so equal operands always produce equal keys (OMem without an index
// normalizes Index to RegNone / Scale to 0, which rtl.MemIdx guarantees
// already).
type opK struct {
	Kind  rtl.OpKind
	Reg   rtl.Reg
	Val   int64
	Sym   string
	Index rtl.Reg
	Scale int64
}

func opKey(o rtl.Operand) opK {
	switch o.Kind {
	case rtl.OReg:
		return opK{Kind: rtl.OReg, Reg: o.Reg}
	case rtl.OImm, rtl.OLocal, rtl.OAddrLocal:
		return opK{Kind: o.Kind, Val: o.Val}
	case rtl.OGlobal, rtl.OAddrGlobal:
		return opK{Kind: o.Kind, Sym: o.Sym, Val: o.Val}
	case rtl.OMem:
		k := opK{Kind: rtl.OMem, Reg: o.Reg, Val: o.Val, Index: rtl.RegNone}
		if o.Index != rtl.RegNone {
			k.Index, k.Scale = o.Index, o.Scale
		}
		return k
	}
	return opK{Kind: o.Kind}
}

// usesReg reports whether the keyed operand reads register r.
func (k opK) usesReg(r rtl.Reg) bool {
	switch k.Kind {
	case rtl.OReg:
		return k.Reg == r
	case rtl.OMem:
		return k.Reg == r || k.Index != rtl.RegNone && k.Index == r
	}
	return false
}

// less is an arbitrary but deterministic total order on operand keys, used
// only to pick the canonical operand order of commutative expressions.
func (k opK) less(o opK) bool {
	if k.Kind != o.Kind {
		return k.Kind < o.Kind
	}
	if k.Reg != o.Reg {
		return k.Reg < o.Reg
	}
	if k.Val != o.Val {
		return k.Val < o.Val
	}
	if k.Sym != o.Sym {
		return k.Sym < o.Sym
	}
	if k.Index != o.Index {
		return k.Index < o.Index
	}
	return k.Scale < o.Scale
}

// exprK is the canonical key for a pure computation (kind exprBin/exprUn)
// or a materialized constant or address (kind exprMat).
type exprK struct {
	kind uint8
	op   int
	a, b opK
}

const (
	exprBin = iota + 1
	exprUn
	exprMat
)

// exprKey builds the canonical key for a pure computation; ok is false for
// instructions that are not value-numberable expressions.
func exprKey(in *rtl.Inst) (exprK, bool) {
	switch in.Kind {
	case rtl.Bin:
		a, b := opKey(in.Src), opKey(in.Src2)
		if in.BOp.Commutative() && b.less(a) {
			a, b = b, a
		}
		return exprK{kind: exprBin, op: int(in.BOp), a: a, b: b}, true
	case rtl.Un:
		return exprK{kind: exprUn, op: int(in.UOp), a: opKey(in.Src)}, true
	}
	return exprK{}, false
}

// matKey keys a materialized constant or address (`r = #5`, `r = &sym`).
func matKey(o rtl.Operand) exprK {
	return exprK{kind: exprMat, a: opKey(o)}
}

// usesReg reports whether the keyed expression reads register r.
func (k exprK) usesReg(r rtl.Reg) bool {
	return k.a.usesReg(r) || k.kind == exprBin && k.b.usesReg(r)
}

// vnState is the value-numbering state within one basic block: four flat
// tables of facts, one fact per key, searched linearly. The tables stay
// small — a block's expression table holds 32 facts or fewer nearly every
// time a register is redefined, its constant and memory tables fewer
// still — so a scan beats hashing the keys, and copying a state for a
// successor copies four short slices instead of four maps.
type vnState struct {
	m       *machine.Machine
	constOf []constFact
	copyOf  []copyFact
	exprOf  []exprFact // expression key -> register holding it
	memVal  []memFact  // memory operand key -> register holding its value
}

// constFact records that register r holds the constant v.
type constFact struct {
	r rtl.Reg
	v int64
}

// copyFact records that register d holds a copy of register src.
type copyFact struct {
	d, src rtl.Reg
}

// exprFact records that register r holds the value of expression k.
type exprFact struct {
	k exprK
	r rtl.Reg
}

// memFact records that register r holds the value stored at operand k.
type memFact struct {
	k opK
	r rtl.Reg
}

func newVNState(m *machine.Machine) *vnState {
	return &vnState{m: m}
}

// constVal returns the constant register r is known to hold.
func (s *vnState) constVal(r rtl.Reg) (int64, bool) {
	for i := range s.constOf {
		if s.constOf[i].r == r {
			return s.constOf[i].v, true
		}
	}
	return 0, false
}

// exprReg returns the register known to hold expression k.
func (s *vnState) exprReg(k exprK) (rtl.Reg, bool) {
	for i := range s.exprOf {
		if f := &s.exprOf[i]; f.k == k {
			return f.r, true
		}
	}
	return rtl.RegNone, false
}

// memReg returns the register known to hold the value stored at k.
func (s *vnState) memReg(k opK) (rtl.Reg, bool) {
	for i := range s.memVal {
		if f := &s.memVal[i]; f.k == k {
			return f.r, true
		}
	}
	return rtl.RegNone, false
}

func (s *vnState) setConst(r rtl.Reg, v int64) {
	for i := range s.constOf {
		if s.constOf[i].r == r {
			s.constOf[i].v = v
			return
		}
	}
	s.constOf = append(s.constOf, constFact{r, v})
}

func (s *vnState) setCopy(d, src rtl.Reg) {
	for i := range s.copyOf {
		if s.copyOf[i].d == d {
			s.copyOf[i].src = src
			return
		}
	}
	s.copyOf = append(s.copyOf, copyFact{d, src})
}

func (s *vnState) setExpr(k exprK, r rtl.Reg) {
	for i := range s.exprOf {
		if f := &s.exprOf[i]; f.k == k {
			f.r = r
			return
		}
	}
	s.exprOf = append(s.exprOf, exprFact{k, r})
}

func (s *vnState) setMem(k opK, r rtl.Reg) {
	for i := range s.memVal {
		if f := &s.memVal[i]; f.k == k {
			f.r = r
			return
		}
	}
	s.memVal = append(s.memVal, memFact{k, r})
}

// copyFrom makes s a copy of o for propagation into a single-predecessor
// successor (extended-basic-block value numbering), reusing s's tables.
// An empty table of a fresh state stays nil.
func (s *vnState) copyFrom(o *vnState) {
	s.constOf = append(s.constOf[:0], o.constOf...)
	s.copyOf = append(s.copyOf[:0], o.copyOf...)
	s.exprOf = append(s.exprOf[:0], o.exprOf...)
	s.memVal = append(s.memVal[:0], o.memVal...)
}

// reset empties every table, keeping their storage for reuse.
func (s *vnState) reset() {
	s.constOf, s.copyOf, s.exprOf, s.memVal = s.constOf[:0], s.copyOf[:0], s.exprOf[:0], s.memVal[:0]
}

// resolve follows copy chains to the canonical source register.
func (s *vnState) resolve(r rtl.Reg) rtl.Reg {
	for i := 0; i < 8; i++ {
		found := false
		for j := range s.copyOf {
			if s.copyOf[j].d == r {
				r, found = s.copyOf[j].src, true
				break
			}
		}
		if !found {
			return r
		}
	}
	return r
}

// invalidateReg drops every fact that mentions r, as its key, its value or
// an operand of its key (an OMem base or index included), compacting each
// table in one pass.
func (s *vnState) invalidateReg(r rtl.Reg) {
	n := 0
	for i := range s.constOf {
		if s.constOf[i].r != r {
			s.constOf[n] = s.constOf[i]
			n++
		}
	}
	s.constOf = s.constOf[:n]
	n = 0
	for i := range s.copyOf {
		if c := s.copyOf[i]; c.d != r && c.src != r {
			s.copyOf[n] = c
			n++
		}
	}
	s.copyOf = s.copyOf[:n]
	n = 0
	for i := range s.exprOf {
		if f := &s.exprOf[i]; f.r != r && !f.k.usesReg(r) {
			if n != i {
				s.exprOf[n] = *f
			}
			n++
		}
	}
	s.exprOf = s.exprOf[:n]
	n = 0
	for i := range s.memVal {
		if f := &s.memVal[i]; f.r != r && !f.k.usesReg(r) {
			if n != i {
				s.memVal[n] = *f
			}
			n++
		}
	}
	s.memVal = s.memVal[:n]
}

// invalidateMemory drops all memory-derived state (after stores and calls).
func (s *vnState) invalidateMemory() {
	s.memVal = s.memVal[:0]
	// Expressions never read memory (only Move does), so exprOf survives.
}

// substSrc rewrites one source operand using known constants, copies and
// loaded values, keeping the instruction legal for the machine: each
// tentative rewrite is undone unless the machine accepts the whole
// instruction.
func (s *vnState) substSrc(in *rtl.Inst, o *rtl.Operand) {
	try := func(repl rtl.Operand) bool {
		old := *o
		*o = repl
		if s.m == nil || s.m.LegalInst(in) {
			return true
		}
		*o = old
		return false
	}
	switch o.Kind {
	case rtl.OReg:
		r := s.resolve(o.Reg)
		if v, ok := s.constVal(r); ok && try(rtl.Imm(v)) {
			return
		}
		if r != o.Reg {
			try(rtl.R(r))
		}
	case rtl.OMem:
		// Canonicalize base/index through copies first.
		no := *o
		no.Reg = s.resolve(o.Reg)
		if no.Index != rtl.RegNone {
			no.Index = s.resolve(no.Index)
		}
		if !no.Equal(*o) {
			try(no)
		}
		fallthrough
	case rtl.OLocal, rtl.OGlobal:
		if r, ok := s.memReg(opKey(*o)); ok {
			try(rtl.R(r))
		}
	}
}

// CommonSubexpressions performs value numbering with constant and copy
// propagation and store-to-load forwarding, over extended basic blocks: a
// block with exactly one predecessor inherits that predecessor's exit
// state, so availability flows down branch fans without a full dataflow
// framework. Machine legality is preserved.
//
// Reports whether some instruction ends up different from what it was when
// CSE reached it. The rewrites below can cancel out — a copy `d = r` of a
// register known to hold #0 becomes `d = #0` by constant substitution and
// then `d = r` again by materialized-constant reuse — and counting each step
// would keep Figure 3's do-while loop running on unchanged code until its
// iteration cap.
func CommonSubexpressions(f *cfg.Func, m *machine.Machine) bool {
	changed := false
	e := cfg.ComputeEdges(f)
	n := len(f.Blocks)
	// A block inherits the exit state of its single predecessor when that
	// predecessor comes first in layout. Layout order approximates reverse
	// postorder for the front-end-generated graphs; a predecessor later in
	// layout (a back edge) simply yields a fresh state.
	inherits := func(b *cfg.Block) int {
		if preds := e.Preds[b.Index]; len(preds) == 1 && preds[0].Index < b.Index {
			return preds[0].Index
		}
		return -1
	}
	// exit[i] is block i's end-of-block state, kept while heirs[i] blocks
	// still have to inherit it. The last heir takes the state itself and
	// the others copy it; a state no block is left to inherit goes to
	// free, for a later block to reuse its tables.
	exit := make([]*vnState, n)
	heirs := f.Scratch().Ints(n)
	clear(heirs)
	for _, b := range f.Blocks {
		if p := inherits(b); p >= 0 {
			heirs[p]++
		}
	}
	var free []*vnState
	empty := func() *vnState {
		k := len(free)
		if k == 0 {
			return newVNState(m)
		}
		s := free[k-1]
		free = free[:k-1]
		s.reset()
		return s
	}
	for _, b := range f.Blocks {
		var s *vnState
		switch p := inherits(b); {
		case p < 0:
			s = empty()
		case heirs[p] == 1:
			s, exit[p] = exit[p], nil
			heirs[p] = 0
		default:
			s = empty()
			s.copyFrom(exit[p])
			heirs[p]--
		}
		for ii := range b.Insts {
			in := &b.Insts[ii]
			// The rewrites replace in wholesale and never write its jump
			// table, so this shallow copy stays a faithful record.
			reached := *in
			// Substitute into sources.
			switch in.Kind {
			case rtl.Move, rtl.Bin, rtl.Un, rtl.Cmp, rtl.Arg, rtl.Ret, rtl.IJmp:
				for _, o := range in.SrcOperands() {
					s.substSrc(in, o)
				}
			}
			// Fold if fully constant now.
			if in.Kind == rtl.Bin && in.Src.Kind == rtl.OImm && in.Src2.Kind == rtl.OImm {
				*in = rtl.Inst{Kind: rtl.Move, Dst: in.Dst, Src: rtl.Imm(in.BOp.Eval(in.Src.Val, in.Src2.Val))}
			}
			if in.Kind == rtl.Un && in.Src.Kind == rtl.OImm {
				*in = rtl.Inst{Kind: rtl.Move, Dst: in.Dst, Src: rtl.Imm(in.UOp.Eval(in.Src.Val))}
			}
			// Reuse an available expression.
			if (in.Kind == rtl.Bin || in.Kind == rtl.Un) && in.Dst.Kind == rtl.OReg {
				if key, ok := exprKey(in); ok {
					if r, ok := s.exprReg(key); ok && r != in.Dst.Reg {
						*in = rtl.Inst{Kind: rtl.Move, Dst: in.Dst, Src: rtl.R(r)}
					}
				}
			}
			// Reuse a materialized constant or address: a second
			// `r' = &sym` becomes a copy of the first, and copy
			// propagation then retires r' entirely.
			if in.Kind == rtl.Move && in.Dst.Kind == rtl.OReg &&
				(in.Src.Kind == rtl.OAddrLocal || in.Src.Kind == rtl.OAddrGlobal || in.Src.Kind == rtl.OImm) {
				if r, ok := s.exprReg(matKey(in.Src)); ok && r != in.Dst.Reg {
					*in = rtl.Inst{Kind: rtl.Move, Dst: in.Dst, Src: rtl.R(r)}
				}
			}
			if !in.Equal(&reached) {
				changed = true
			}
			// Update state.
			switch in.Kind {
			case rtl.Move:
				if in.Dst.Kind == rtl.OReg {
					d := in.Dst.Reg
					s.invalidateReg(d)
					switch in.Src.Kind {
					case rtl.OImm:
						s.setConst(d, in.Src.Val)
						s.setExpr(matKey(in.Src), d)
					case rtl.OAddrLocal, rtl.OAddrGlobal:
						s.setExpr(matKey(in.Src), d)
					case rtl.OReg:
						if in.Src.Reg != d {
							s.setCopy(d, s.resolve(in.Src.Reg))
						}
					case rtl.OLocal, rtl.OGlobal, rtl.OMem:
						s.setMem(opKey(in.Src), d)
					}
				} else if in.Dst.IsMem() {
					s.invalidateMemory()
					if in.Src.Kind == rtl.OReg {
						s.setMem(opKey(in.Dst), s.resolve(in.Src.Reg))
					}
				}
			case rtl.Bin, rtl.Un:
				if in.Dst.Kind == rtl.OReg {
					d := in.Dst.Reg
					key, keyOK := exprKey(in)
					usesSelf := keyOK && key.usesReg(d)
					s.invalidateReg(d)
					if keyOK && !usesSelf {
						s.setExpr(key, d)
					}
				} else if in.Dst.IsMem() {
					s.invalidateMemory()
				}
			case rtl.Call:
				s.invalidateMemory()
				if in.Dst.Kind == rtl.OReg {
					s.invalidateReg(in.Dst.Reg)
				}
			}
		}
		if heirs[b.Index] > 0 {
			exit[b.Index] = s
		} else {
			free = append(free, s)
		}
	}
	f.Scratch().PutInts(heirs)
	e.Release()
	return changed
}
