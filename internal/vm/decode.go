package vm

import (
	"repro/internal/cfg"
	"repro/internal/rtl"
)

// A program is decoded once per Run into a flat form the interpreter can
// execute without map lookups: every register gets a dense slot in its
// frame, global operands carry their resolved address, transfer targets
// are block indices, and calls name a function index or an intrinsic.

// opKind is a decoded operand's addressing mode.
type opKind uint8

const (
	oNone      opKind = iota // absent: reads 0, writes nothing
	oReg                     // regs[r]
	oImm                     // v (constants and addresses of globals)
	oLocal                   // mem[fp+v]
	oAbs                     // mem[v] (a global cell, address resolved)
	oMem                     // mem[regs[r]+v], plus regs[x]*scale when x >= 0
	oAddrLocal               // fp+v
)

// operand is a decoded rtl.Operand.
type operand struct {
	v     int64
	scale int64
	r, x  int32
	kind  opKind
}

// inst is a decoded rtl.Inst.
type inst struct {
	dst, src, src2 operand
	// target is a Br or Jmp's block index (-1 for an unknown label, which
	// fails only when the transfer happens); table holds an IJmp's.
	target int32
	// callee is a Call's function index, or one of the callee constants.
	callee int32
	argIdx int
	lo     int64
	table  []int32
	// addr and size are the instruction's fetch, read from the Layout.
	addr, size int64
	// orig is the instruction as written, for traces and error messages.
	orig  *rtl.Inst
	kind  rtl.Kind
	bop   rtl.BinOp
	uop   rtl.UnOp
	rel   rtl.Rel
	annul bool
}

// block is a decoded basic block: insts[start:end] of its function.
type block struct{ start, end int }

// function is a decoded cfg.Func.
type function struct {
	src    *cfg.Func
	blocks []block
	insts  []inst
	// nregs is the frame's register count; slot 0 is FP and slot 1 SP.
	nregs int
}

// decoder carries the program-wide tables decoding resolves against.
type decoder struct {
	funcIdx map[string]int32
	gaddr   map[string]int64
	slots   map[rtl.Reg]int32
}

// decode flattens p. gaddr gives each global's base address; layout,
// when non-nil, supplies every instruction's fetch address and size.
func decode(p *cfg.Program, gaddr map[string]int64, layout *Layout) []function {
	d := decoder{funcIdx: make(map[string]int32, len(p.Funcs)), gaddr: gaddr}
	for i := len(p.Funcs) - 1; i >= 0; i-- {
		d.funcIdx[p.Funcs[i].Name] = int32(i) // the first of duplicate names wins, as in Program.Func
	}
	fns := make([]function, len(p.Funcs))
	for fi, f := range p.Funcs {
		fns[fi] = d.function(f, fi, layout)
	}
	return fns
}

func (d *decoder) function(f *cfg.Func, fi int, layout *Layout) function {
	d.slots = map[rtl.Reg]int32{rtl.FP: 0, rtl.SP: 1}
	labels := make(map[rtl.Label]int32, len(f.Blocks))
	n := 0
	for bi, b := range f.Blocks {
		labels[b.Label] = int32(bi)
		n += len(b.Insts)
	}
	target := func(l rtl.Label) int32 {
		if bi, ok := labels[l]; ok {
			return bi
		}
		return -1
	}
	fn := function{src: f, blocks: make([]block, len(f.Blocks)), insts: make([]inst, 0, n)}
	for bi, b := range f.Blocks {
		fn.blocks[bi].start = len(fn.insts)
		for ii := range b.Insts {
			in := &b.Insts[ii]
			di := inst{
				dst: d.operand(in.Dst), src: d.operand(in.Src), src2: d.operand(in.Src2),
				target: -1, argIdx: in.ArgIdx, lo: in.Lo, orig: in,
				kind: in.Kind, bop: in.BOp, uop: in.UOp, rel: in.BrRel, annul: in.Annul,
			}
			switch in.Kind {
			case rtl.Br, rtl.Jmp:
				di.target = target(in.Target)
			case rtl.IJmp:
				di.table = make([]int32, len(in.Table))
				for i, l := range in.Table {
					di.table[i] = target(l)
				}
			case rtl.Call:
				di.callee = d.callee(in.Sym)
			}
			if layout != nil {
				ef := layout.Funcs[fi]
				di.addr, di.size = layout.FuncBase[fi]+ef.Off[bi][ii], ef.Size[bi][ii]
			}
			fn.insts = append(fn.insts, di)
		}
		fn.blocks[bi].end = len(fn.insts)
	}
	fn.nregs = len(d.slots)
	return fn
}

func (d *decoder) callee(sym string) int32 {
	if c, ok := intrinsics[sym]; ok {
		return c
	}
	if fi, ok := d.funcIdx[sym]; ok {
		return fi
	}
	return calleeUnknown
}

// slot returns r's register slot in the function being decoded.
func (d *decoder) slot(r rtl.Reg) int32 {
	s, ok := d.slots[r]
	if !ok {
		s = int32(len(d.slots))
		d.slots[r] = s
	}
	return s
}

func (d *decoder) operand(o rtl.Operand) operand {
	switch o.Kind {
	case rtl.OReg:
		return operand{kind: oReg, r: d.slot(o.Reg)}
	case rtl.OImm:
		return operand{kind: oImm, v: o.Val}
	case rtl.OLocal:
		return operand{kind: oLocal, v: o.Val}
	case rtl.OGlobal:
		return operand{kind: oAbs, v: d.gaddr[o.Sym] + o.Val}
	case rtl.OMem:
		do := operand{kind: oMem, r: d.slot(o.Reg), x: -1, v: o.Val}
		if o.Index != rtl.RegNone {
			do.x, do.scale = d.slot(o.Index), o.Scale
		}
		return do
	case rtl.OAddrLocal:
		return operand{kind: oAddrLocal, v: o.Val}
	case rtl.OAddrGlobal:
		return operand{kind: oImm, v: d.gaddr[o.Sym] + o.Val}
	}
	return operand{kind: oNone}
}
