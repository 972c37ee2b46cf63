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

// vnState is the value-numbering state within one basic block. The maps are
// allocated lazily: most blocks never populate all four.
type vnState struct {
	m       *machine.Machine
	constOf map[rtl.Reg]int64
	copyOf  map[rtl.Reg]rtl.Reg
	exprOf  map[exprK]rtl.Reg // expression key -> register holding it
	memVal  map[opK]rtl.Reg   // memory operand key -> register holding its value
}

func newVNState(m *machine.Machine) *vnState {
	return &vnState{m: m}
}

func (s *vnState) setConst(r rtl.Reg, v int64) {
	if s.constOf == nil {
		s.constOf = map[rtl.Reg]int64{}
	}
	s.constOf[r] = v
}

func (s *vnState) setCopy(d, src rtl.Reg) {
	if s.copyOf == nil {
		s.copyOf = map[rtl.Reg]rtl.Reg{}
	}
	s.copyOf[d] = src
}

func (s *vnState) setExpr(k exprK, r rtl.Reg) {
	if s.exprOf == nil {
		s.exprOf = map[exprK]rtl.Reg{}
	}
	s.exprOf[k] = r
}

func (s *vnState) setMem(k opK, r rtl.Reg) {
	if s.memVal == nil {
		s.memVal = map[opK]rtl.Reg{}
	}
	s.memVal[k] = r
}

// clone copies the state for propagation into a single-predecessor
// successor (extended-basic-block value numbering). Empty maps stay nil.
func (s *vnState) clone() *vnState {
	c := newVNState(s.m)
	if len(s.constOf) > 0 {
		c.constOf = make(map[rtl.Reg]int64, len(s.constOf))
		for k, v := range s.constOf {
			c.constOf[k] = v
		}
	}
	if len(s.copyOf) > 0 {
		c.copyOf = make(map[rtl.Reg]rtl.Reg, len(s.copyOf))
		for k, v := range s.copyOf {
			c.copyOf[k] = v
		}
	}
	if len(s.exprOf) > 0 {
		c.exprOf = make(map[exprK]rtl.Reg, len(s.exprOf))
		for k, v := range s.exprOf {
			c.exprOf[k] = v
		}
	}
	if len(s.memVal) > 0 {
		c.memVal = make(map[opK]rtl.Reg, len(s.memVal))
		for k, v := range s.memVal {
			c.memVal[k] = v
		}
	}
	return c
}

// resolve follows copy chains to the canonical source register.
func (s *vnState) resolve(r rtl.Reg) rtl.Reg {
	for i := 0; i < 8; i++ {
		c, ok := s.copyOf[r]
		if !ok {
			return r
		}
		r = c
	}
	return r
}

// invalidateReg drops every piece of state that mentions r.
func (s *vnState) invalidateReg(r rtl.Reg) {
	delete(s.constOf, r)
	delete(s.copyOf, r)
	for x, c := range s.copyOf {
		if c == r {
			delete(s.copyOf, x)
		}
	}
	for k, v := range s.exprOf {
		if v == r || k.usesReg(r) {
			delete(s.exprOf, k)
		}
	}
	for k, v := range s.memVal {
		if v == r || k.usesReg(r) {
			delete(s.memVal, k)
		}
	}
}

// invalidateMemory drops all memory-derived state (after stores and calls).
func (s *vnState) invalidateMemory() {
	clear(s.memVal)
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
		if v, ok := s.constOf[r]; ok && try(rtl.Imm(v)) {
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
		if r, ok := s.memVal[opKey(*o)]; ok {
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
	// exit[i] is block i's end-of-block state, for forward propagation.
	exit := make([]*vnState, len(f.Blocks))
	for _, b := range f.Blocks {
		var s *vnState
		// Inherit from a single already-processed predecessor. Layout
		// order approximates reverse postorder for the fronted-generated
		// graphs; a predecessor later in layout (a back edge) simply
		// yields a fresh state.
		if preds := e.Preds[b.Index]; len(preds) == 1 && preds[0].Index < b.Index && exit[preds[0].Index] != nil {
			s = exit[preds[0].Index].clone()
		} else {
			s = newVNState(m)
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
					if r, ok := s.exprOf[key]; ok && r != in.Dst.Reg {
						*in = rtl.Inst{Kind: rtl.Move, Dst: in.Dst, Src: rtl.R(r)}
					}
				}
			}
			// Reuse a materialized constant or address: a second
			// `r' = &sym` becomes a copy of the first, and copy
			// propagation then retires r' entirely.
			if in.Kind == rtl.Move && in.Dst.Kind == rtl.OReg &&
				(in.Src.Kind == rtl.OAddrLocal || in.Src.Kind == rtl.OAddrGlobal || in.Src.Kind == rtl.OImm) {
				if r, ok := s.exprOf[matKey(in.Src)]; ok && r != in.Dst.Reg {
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
		exit[b.Index] = s
	}
	e.Release()
	return changed
}
