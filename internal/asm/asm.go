// Package asm renders optimized RTL programs in the assembly syntax of the
// simulated target machines — Motorola syntax for the 68020, SPARC syntax
// for the RISC, Intel syntax for the x86. It is a pretty-printer for
// inspection and teaching, not an encoder: each RTL prints as one
// instruction line, mirroring the one-RTL-one-instruction accounting of
// the measurements (real 68020/x86 three-address cases would need an extra
// move; these print in a three-address pseudo form and are marked with a
// trailing comment). EmitListing additionally prefixes every line with the
// byte offset and encoded size from internal/encode's layout fixpoint.
package asm

import (
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/encode"
	"repro/internal/machine"
	"repro/internal/rtl"
)

// emitters is the per-machine syntax registry, keyed by canonical machine
// name. Dispatching by name instead of by the LoadStore property means a
// machine the package does not know is an explicit error, never a silently
// wrong syntax.
var emitters = map[string]emitter{
	machine.M68020.Name: m68kEmitter{},
	machine.SPARC.Name:  sparcEmitter{},
	machine.X86.Name:    x86Emitter{},
}

// emitterFor resolves the machine's emitter from the registry.
func emitterFor(m *machine.Machine) (emitter, error) {
	e, ok := emitters[m.Name]
	if !ok {
		return nil, fmt.Errorf("asm: no emitter registered for machine %q", m.Name)
	}
	return e, nil
}

// Emit writes the whole program in the machine's assembly syntax.
func Emit(w io.Writer, p *cfg.Program, m *machine.Machine) error {
	e, err := emitterFor(m)
	if err != nil {
		return err
	}
	for _, g := range p.Globals {
		fmt.Fprintf(w, "\t.data %s, %d cells\n", g.Name, g.Size)
	}
	for _, f := range p.Funcs {
		fmt.Fprintf(w, "\n%s:\n", f.Name)
		for _, b := range f.Blocks {
			fmt.Fprintf(w, "%s:\n", localLabel(f, b.Label))
			for ii := range b.Insts {
				line, err := e.inst(f, &b.Insts[ii])
				if err != nil {
					return fmt.Errorf("asm: %s: %v", f.Name, err)
				}
				fmt.Fprintf(w, "\t%s\n", line)
			}
		}
	}
	return nil
}

// EmitListing writes the program as an encoded listing: every instruction
// line is prefixed with its program-relative byte offset and encoded size
// from internal/encode's layout. On machines with an Encoder the variable
// jumps carry their fixpoint-assigned form as a trailing comment
// ("; short" / "; near"); other machines list their flat InstSize sums.
func EmitListing(w io.Writer, p *cfg.Program, m *machine.Machine) error {
	e, err := emitterFor(m)
	if err != nil {
		return err
	}
	ep := encode.LayoutProgram(p, m)
	for _, g := range p.Globals {
		fmt.Fprintf(w, "\t.data %s, %d cells\n", g.Name, g.Size)
	}
	for fi, f := range p.Funcs {
		ef := ep.Funcs[fi]
		base := ep.FuncBase[fi]
		fmt.Fprintf(w, "\n%06x %s:\n", base, f.Name)
		for bi, b := range f.Blocks {
			fmt.Fprintf(w, "%06x %s:\n", base+ef.BlockOff[bi], localLabel(f, b.Label))
			for ii := range b.Insts {
				line, err := e.inst(f, &b.Insts[ii])
				if err != nil {
					return fmt.Errorf("asm: %s: %v", f.Name, err)
				}
				switch ef.Form[bi][ii] {
				case encode.FormShort, encode.FormNear:
					line += " ; " + ef.Form[bi][ii].String()
				}
				fmt.Fprintf(w, "%06x %2d\t%s\n", base+ef.Off[bi][ii], ef.Size[bi][ii], line)
			}
		}
	}
	fmt.Fprintf(w, "\n; %s: %d code bytes\n", m.Name, ep.CodeBytes)
	return nil
}

// localLabel namespaces block labels per function.
func localLabel(f *cfg.Func, l rtl.Label) string {
	return fmt.Sprintf(".%s_%s", f.Name, l)
}

type emitter interface {
	inst(f *cfg.Func, in *rtl.Inst) (string, error)
}

// --- Motorola 68020 ---

type m68kEmitter struct{}

// m68kReg maps the generic allocatable registers onto d0-d7/a0-a3, with
// the dedicated frame and stack pointers on a6/a7.
func m68kReg(r rtl.Reg) string {
	switch r {
	case rtl.FP:
		return "a6"
	case rtl.SP:
		return "a7"
	case rtl.RV:
		return "d0"
	}
	n := int(r - rtl.FirstAlloc)
	if n < 8 {
		return fmt.Sprintf("d%d", n)
	}
	return fmt.Sprintf("a%d", n-8)
}

func m68kOperand(o rtl.Operand) string {
	switch o.Kind {
	case rtl.OReg:
		return m68kReg(o.Reg)
	case rtl.OImm:
		return fmt.Sprintf("#%d", o.Val)
	case rtl.OLocal:
		return fmt.Sprintf("%d(a6)", o.Val)
	case rtl.OGlobal:
		if o.Val == 0 {
			return fmt.Sprintf("(%s)", o.Sym)
		}
		return fmt.Sprintf("(%s+%d)", o.Sym, o.Val)
	case rtl.OMem:
		switch {
		case o.Index != rtl.RegNone:
			return fmt.Sprintf("(%d,%s,%s.l*%d)", o.Val, m68kReg(o.Reg), m68kReg(o.Index), o.Scale)
		case o.Val == 0:
			return fmt.Sprintf("(%s)", m68kReg(o.Reg))
		default:
			return fmt.Sprintf("%d(%s)", o.Val, m68kReg(o.Reg))
		}
	case rtl.OAddrLocal:
		return fmt.Sprintf("#<a6%+d>", o.Val)
	case rtl.OAddrGlobal:
		if o.Val == 0 {
			return "#" + o.Sym
		}
		return fmt.Sprintf("#%s+%d", o.Sym, o.Val)
	}
	return "?"
}

var m68kBinOps = map[rtl.BinOp]string{
	rtl.Add: "add.l", rtl.Sub: "sub.l", rtl.Mul: "muls.l", rtl.Div: "divs.l",
	rtl.Mod: "rems.l", rtl.And: "and.l", rtl.Or: "or.l", rtl.Xor: "eor.l",
	rtl.Shl: "asl.l", rtl.Shr: "asr.l",
}

var m68kBranches = map[rtl.Rel]string{
	rtl.Eq: "beq", rtl.Ne: "bne", rtl.Lt: "blt",
	rtl.Le: "ble", rtl.Gt: "bgt", rtl.Ge: "bge",
}

func (m68kEmitter) inst(f *cfg.Func, in *rtl.Inst) (string, error) {
	switch in.Kind {
	case rtl.Move:
		return fmt.Sprintf("move.l %s,%s", m68kOperand(in.Src), m68kOperand(in.Dst)), nil
	case rtl.Bin:
		op := m68kBinOps[in.BOp]
		if in.Dst.Equal(in.Src) {
			return fmt.Sprintf("%s %s,%s", op, m68kOperand(in.Src2), m68kOperand(in.Dst)), nil
		}
		if in.BOp.Commutative() && in.Dst.Equal(in.Src2) {
			return fmt.Sprintf("%s %s,%s", op, m68kOperand(in.Src), m68kOperand(in.Dst)), nil
		}
		// Three-address pseudo form; the real encoding needs a move first.
		return fmt.Sprintf("%s %s,%s,%s | pseudo 3-addr", op,
			m68kOperand(in.Src), m68kOperand(in.Src2), m68kOperand(in.Dst)), nil
	case rtl.Un:
		op := "neg.l"
		if in.UOp == rtl.Not {
			op = "not.l"
		}
		if in.Dst.Equal(in.Src) {
			return fmt.Sprintf("%s %s", op, m68kOperand(in.Dst)), nil
		}
		return fmt.Sprintf("%s %s,%s | pseudo 2-addr", op, m68kOperand(in.Src), m68kOperand(in.Dst)), nil
	case rtl.Cmp:
		// Motorola order: cmp source,destination sets CC from dst-src.
		return fmt.Sprintf("cmp.l %s,%s", m68kOperand(in.Src2), m68kOperand(in.Src)), nil
	case rtl.Br:
		return fmt.Sprintf("%s %s", m68kBranches[in.BrRel], localLabel(f, in.Target)), nil
	case rtl.Jmp:
		return "bra " + localLabel(f, in.Target), nil
	case rtl.IJmp:
		return fmt.Sprintf("jmp ([.%s_tbl,%s.l*4])", f.Name, m68kOperand(in.Src)), nil
	case rtl.Arg:
		return fmt.Sprintf("move.l %s,-(a7)", m68kOperand(in.Src)), nil
	case rtl.Call:
		return "jsr " + in.Sym, nil
	case rtl.Ret:
		if in.Src.Kind != rtl.ONone {
			return fmt.Sprintf("move.l %s,d0; unlk a6; rts", m68kOperand(in.Src)), nil
		}
		return "unlk a6; rts", nil
	case rtl.Nop:
		return "nop", nil
	}
	return "", fmt.Errorf("unknown instruction kind %v", in.Kind)
}

// --- SPARC ---

type sparcEmitter struct{}

// sparcReg maps the generic allocatable registers onto the SPARC windows:
// %o0-%o5, %l0-%l7, %i0-%i5, then %g1-%g4.
func sparcReg(r rtl.Reg) string {
	switch r {
	case rtl.FP:
		return "%fp"
	case rtl.SP:
		return "%sp"
	case rtl.RV:
		return "%o0"
	}
	n := int(r - rtl.FirstAlloc)
	switch {
	case n < 6:
		return fmt.Sprintf("%%o%d", n)
	case n < 14:
		return fmt.Sprintf("%%l%d", n-6)
	case n < 20:
		return fmt.Sprintf("%%i%d", n-14)
	default:
		return fmt.Sprintf("%%g%d", n-19)
	}
}

func sparcValue(o rtl.Operand) (string, error) {
	switch o.Kind {
	case rtl.OReg:
		return sparcReg(o.Reg), nil
	case rtl.OImm:
		return fmt.Sprint(o.Val), nil
	case rtl.OAddrLocal:
		return fmt.Sprintf("%%fp%+d", o.Val), nil
	case rtl.OAddrGlobal:
		if o.Val == 0 {
			return o.Sym, nil
		}
		return fmt.Sprintf("%s+%d", o.Sym, o.Val), nil
	}
	return "", fmt.Errorf("operand %s is not a SPARC value", o)
}

func sparcAddress(o rtl.Operand) (string, error) {
	switch o.Kind {
	case rtl.OLocal:
		return fmt.Sprintf("[%%fp%+d]", o.Val), nil
	case rtl.OGlobal:
		if o.Val == 0 {
			return fmt.Sprintf("[%s]", o.Sym), nil
		}
		return fmt.Sprintf("[%s+%d]", o.Sym, o.Val), nil
	case rtl.OMem:
		if o.Index != rtl.RegNone {
			return fmt.Sprintf("[%s+%s]", sparcReg(o.Reg), sparcReg(o.Index)), nil
		}
		if o.Val == 0 {
			return fmt.Sprintf("[%s]", sparcReg(o.Reg)), nil
		}
		return fmt.Sprintf("[%s%+d]", sparcReg(o.Reg), o.Val), nil
	}
	return "", fmt.Errorf("operand %s is not a SPARC address", o)
}

var sparcBinOps = map[rtl.BinOp]string{
	rtl.Add: "add", rtl.Sub: "sub", rtl.Mul: "smul", rtl.Div: "sdiv",
	rtl.Mod: "srem", rtl.And: "and", rtl.Or: "or", rtl.Xor: "xor",
	rtl.Shl: "sll", rtl.Shr: "sra",
}

var sparcBranches = map[rtl.Rel]string{
	rtl.Eq: "be", rtl.Ne: "bne", rtl.Lt: "bl",
	rtl.Le: "ble", rtl.Gt: "bg", rtl.Ge: "bge",
}

func (sparcEmitter) inst(f *cfg.Func, in *rtl.Inst) (string, error) {
	switch in.Kind {
	case rtl.Move:
		switch {
		case in.Dst.Kind == rtl.OReg && in.Src.IsMem():
			a, err := sparcAddress(in.Src)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("ld %s, %s", a, sparcReg(in.Dst.Reg)), nil
		case in.Dst.IsMem():
			a, err := sparcAddress(in.Dst)
			if err != nil {
				return "", err
			}
			v, err := sparcValue(in.Src)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("st %s, %s", v, a), nil
		default:
			v, err := sparcValue(in.Src)
			if err != nil {
				return "", err
			}
			verb := "mov"
			if in.Src.Kind == rtl.OImm && (in.Src.Val > 4095 || in.Src.Val < -4096) ||
				in.Src.Kind == rtl.OAddrLocal || in.Src.Kind == rtl.OAddrGlobal {
				verb = "set" // expands to sethi+or on real hardware
			}
			return fmt.Sprintf("%s %s, %s", verb, v, sparcReg(in.Dst.Reg)), nil
		}
	case rtl.Bin:
		a, err := sparcValue(in.Src)
		if err != nil {
			return "", err
		}
		b, err := sparcValue(in.Src2)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s %s, %s, %s", sparcBinOps[in.BOp], a, b, sparcReg(in.Dst.Reg)), nil
	case rtl.Un:
		verb := "neg"
		if in.UOp == rtl.Not {
			verb = "not"
		}
		return fmt.Sprintf("%s %s, %s", verb, sparcReg(in.Src.Reg), sparcReg(in.Dst.Reg)), nil
	case rtl.Cmp:
		a, err := sparcValue(in.Src)
		if err != nil {
			return "", err
		}
		b, err := sparcValue(in.Src2)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("cmp %s, %s", a, b), nil
	case rtl.Br:
		suffix := ""
		if in.Annul {
			suffix = ",a"
		}
		return fmt.Sprintf("%s%s %s", sparcBranches[in.BrRel], suffix, localLabel(f, in.Target)), nil
	case rtl.Jmp:
		return "ba " + localLabel(f, in.Target), nil
	case rtl.IJmp:
		return fmt.Sprintf("jmp %%g0 + %s ! via .%s_tbl", sparcReg(in.Src.Reg), f.Name), nil
	case rtl.Arg:
		v, err := sparcValue(in.Src)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("mov %s, %%o%d ! outgoing arg", v, in.ArgIdx), nil
	case rtl.Call:
		return "call " + in.Sym, nil
	case rtl.Ret:
		if in.Src.Kind != rtl.ONone {
			v, err := sparcValue(in.Src)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("retl ! result %s", v), nil
		}
		return "retl", nil
	case rtl.Nop:
		return "nop", nil
	}
	return "", fmt.Errorf("unknown instruction kind %v", in.Kind)
}
