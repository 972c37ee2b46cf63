// Package rtl defines the register transfer list (RTL) intermediate
// representation used throughout the optimizer.
//
// An RTL describes the effect of a single target-machine instruction, in the
// style of VPO (Very Portable Optimizer). Every instruction kept in the final
// code corresponds to exactly one machine instruction, so static instruction
// counts are simply RTL counts and dynamic counts are executed-RTL counts.
package rtl

import "fmt"

// Reg names a register. Registers 0..VRegBase-1 are machine registers
// (including the dedicated FP, SP and RV registers); registers >= VRegBase
// are compiler temporaries ("virtual registers") that must be mapped to
// machine registers or spilled before final code is emitted.
type Reg int32

// Dedicated machine registers, present on every target.
const (
	// RegNone marks an absent register operand field.
	RegNone Reg = -1
	// FP is the frame pointer; locals live at M[FP+offset].
	FP Reg = 0
	// SP is the stack pointer.
	SP Reg = 1
	// RV carries function return values.
	RV Reg = 2
	// FirstAlloc is the first general-purpose allocatable register.
	// A machine with K allocatable registers offers FirstAlloc ..
	// FirstAlloc+K-1.
	FirstAlloc Reg = 3
	// VRegBase is the first virtual register number.
	VRegBase Reg = 1 << 20
)

// IsVirtual reports whether r is a compiler temporary rather than a machine
// register.
func (r Reg) IsVirtual() bool { return r >= VRegBase }

// String renders machine registers as r0/fp/sp/rv and virtual registers as
// v0, v1, ...
func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "r?"
	case r == FP:
		return "fp"
	case r == SP:
		return "sp"
	case r == RV:
		return "rv"
	case r >= VRegBase:
		return fmt.Sprintf("v%d", int32(r-VRegBase))
	default:
		return fmt.Sprintf("r%d", int32(r))
	}
}

// OpKind discriminates operand addressing modes.
type OpKind uint8

// Operand addressing modes.
const (
	// ONone marks an absent operand.
	ONone OpKind = iota
	// OReg is a register operand.
	OReg
	// OImm is an integer constant.
	OImm
	// OLocal is a frame slot: M[FP + Val] (Val in cells).
	OLocal
	// OGlobal is a cell in global memory: M[&Sym + Val].
	OGlobal
	// OMem is register-indirect memory: M[Reg + Val + Index*Scale].
	OMem
	// OAddrLocal is the address FP + Val (address-of a local).
	OAddrLocal
	// OAddrGlobal is the address &Sym + Val (address-of a global).
	OAddrGlobal
)

// Operand is one operand of an RTL. The memory of the simulated machines is
// cell addressed: every scalar, array element and pointer occupies one cell.
type Operand struct {
	Kind  OpKind
	Reg   Reg    // OReg register; OMem base register
	Val   int64  // OImm value; OLocal/OAddrLocal offset; OGlobal/OAddrGlobal offset; OMem displacement
	Sym   string // OGlobal/OAddrGlobal symbol name
	Index Reg    // OMem optional index register (RegNone when absent)
	Scale int64  // OMem index scale in cells (0 or 1+ when Index present)
}

// Convenience operand constructors.

// R returns a register operand.
func R(r Reg) Operand { return Operand{Kind: OReg, Reg: r, Index: RegNone} }

// Imm returns an integer-constant operand.
func Imm(v int64) Operand { return Operand{Kind: OImm, Val: v, Index: RegNone} }

// Local returns a frame-slot memory operand M[FP+off].
func Local(off int64) Operand { return Operand{Kind: OLocal, Val: off, Index: RegNone} }

// Global returns a global memory operand M[&sym+off].
func Global(sym string, off int64) Operand {
	return Operand{Kind: OGlobal, Sym: sym, Val: off, Index: RegNone}
}

// Mem returns a register-indirect memory operand M[base+disp].
func Mem(base Reg, disp int64) Operand {
	return Operand{Kind: OMem, Reg: base, Val: disp, Index: RegNone}
}

// MemIdx returns an indexed memory operand M[base+disp+idx*scale].
func MemIdx(base Reg, disp int64, idx Reg, scale int64) Operand {
	return Operand{Kind: OMem, Reg: base, Val: disp, Index: idx, Scale: scale}
}

// AddrLocal returns the address of a frame slot as a value operand.
func AddrLocal(off int64) Operand { return Operand{Kind: OAddrLocal, Val: off, Index: RegNone} }

// AddrGlobal returns the address of a global cell as a value operand.
func AddrGlobal(sym string, off int64) Operand {
	return Operand{Kind: OAddrGlobal, Sym: sym, Val: off, Index: RegNone}
}

// None returns the absent operand.
func None() Operand { return Operand{Kind: ONone, Index: RegNone} }

// IsMem reports whether the operand reads or writes memory.
func (o Operand) IsMem() bool {
	return o.Kind == OLocal || o.Kind == OGlobal || o.Kind == OMem
}

// IsImmLike reports whether the operand is a compile-time constant value
// (integer immediate or the address of a local/global).
func (o Operand) IsImmLike() bool {
	return o.Kind == OImm || o.Kind == OAddrLocal || o.Kind == OAddrGlobal
}

// Equal reports structural equality of operands.
func (o Operand) Equal(p Operand) bool {
	if o.Kind != p.Kind {
		return false
	}
	switch o.Kind {
	case ONone:
		return true
	case OReg:
		return o.Reg == p.Reg
	case OImm, OLocal, OAddrLocal:
		return o.Val == p.Val
	case OGlobal, OAddrGlobal:
		return o.Sym == p.Sym && o.Val == p.Val
	case OMem:
		return o.Reg == p.Reg && o.Val == p.Val && o.Index == p.Index &&
			(o.Index == RegNone || o.Scale == p.Scale)
	}
	return false
}

// UsesReg reports whether the operand reads register r (as value, base or
// index).
func (o Operand) UsesReg(r Reg) bool {
	switch o.Kind {
	case OReg:
		return o.Reg == r
	case OMem:
		return o.Reg == r || o.Index == r
	}
	return false
}

// BinOp is a two-operand arithmetic or logical operator.
type BinOp uint8

// Binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Mod
	And
	Or
	Xor
	Shl
	Shr
)

var binOpNames = [...]string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"}

func (b BinOp) String() string {
	if int(b) < len(binOpNames) {
		return binOpNames[b]
	}
	return fmt.Sprintf("bin(%d)", uint8(b))
}

// Commutative reports whether x op y == y op x.
func (b BinOp) Commutative() bool {
	switch b {
	case Add, Mul, And, Or, Xor:
		return true
	}
	return false
}

// Eval applies the operator to constant inputs. Division and remainder by
// zero yield 0 (the simulated machines trap to zero rather than fault, which
// keeps constant folding total).
func (b BinOp) Eval(x, y int64) int64 {
	switch b {
	case Add:
		return x + y
	case Sub:
		return x - y
	case Mul:
		return x * y
	case Div:
		if y == 0 {
			return 0
		}
		return x / y
	case Mod:
		if y == 0 {
			return 0
		}
		return x % y
	case And:
		return x & y
	case Or:
		return x | y
	case Xor:
		return x ^ y
	case Shl:
		return x << (uint64(y) & 63)
	case Shr:
		return x >> (uint64(y) & 63)
	}
	return 0
}

// UnOp is a one-operand operator.
type UnOp uint8

// Unary operators.
const (
	Neg UnOp = iota
	Not      // bitwise complement
)

func (u UnOp) String() string {
	switch u {
	case Neg:
		return "-"
	case Not:
		return "~"
	}
	return fmt.Sprintf("un(%d)", uint8(u))
}

// Eval applies the operator to a constant input.
func (u UnOp) Eval(x int64) int64 {
	switch u {
	case Neg:
		return -x
	case Not:
		return ^x
	}
	return 0
}

// Rel is a comparison relation tested by a conditional branch against the
// condition code set by a Cmp instruction.
type Rel uint8

// Comparison relations.
const (
	Eq Rel = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

var relNames = [...]string{"==", "!=", "<", "<=", ">", ">="}

func (r Rel) String() string {
	if int(r) < len(relNames) {
		return relNames[r]
	}
	return fmt.Sprintf("rel(%d)", uint8(r))
}

// Negate returns the complementary relation (taken exactly when r is not).
func (r Rel) Negate() Rel {
	switch r {
	case Eq:
		return Ne
	case Ne:
		return Eq
	case Lt:
		return Ge
	case Le:
		return Gt
	case Gt:
		return Le
	case Ge:
		return Lt
	}
	return r
}

// Swap returns the relation with the comparison operands exchanged
// (a r b == b Swap(r) a).
func (r Rel) Swap() Rel {
	switch r {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	}
	return r
}

// Holds evaluates the relation on a comparison result sign (cmp = a-b style:
// x is the first compared value, y the second).
func (r Rel) Holds(x, y int64) bool {
	switch r {
	case Eq:
		return x == y
	case Ne:
		return x != y
	case Lt:
		return x < y
	case Le:
		return x <= y
	case Gt:
		return x > y
	case Ge:
		return x >= y
	}
	return false
}

// Label names a basic block within a function. Labels are unique per
// function and never reused.
type Label int32

// NoLabel marks an absent label.
const NoLabel Label = -1

func (l Label) String() string {
	if l == NoLabel {
		return "L?"
	}
	return fmt.Sprintf("L%d", int32(l))
}

// Kind discriminates RTL instruction kinds.
type Kind uint8

// Instruction kinds.
const (
	// Move: Dst = Src.
	Move Kind = iota
	// Bin: Dst = Src BOp Src2.
	Bin
	// Un: Dst = UOp Src.
	Un
	// Cmp: CC = Src ? Src2 (sets the condition code).
	Cmp
	// Br: if CC satisfies BrRel then PC = Target. Falls through otherwise.
	Br
	// Jmp: PC = Target, unconditionally.
	Jmp
	// IJmp: PC = Table[Src - Lo]; indirect jump through a jump table.
	IJmp
	// Arg: outgoing argument number Val is Src.
	Arg
	// Call: call function Sym; if Dst is present, Dst = returned value.
	Call
	// Ret: return from function; if Src is present it is the return value.
	Ret
	// Nop: no operation (delay-slot filler).
	Nop
)

var kindNames = [...]string{
	"move", "bin", "un", "cmp", "br", "jmp", "ijmp", "arg", "call", "ret", "nop",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Inst is a single RTL.
type Inst struct {
	Kind   Kind
	BOp    BinOp
	UOp    UnOp
	BrRel  Rel     // Br: relation tested against the condition code
	Dst    Operand // Move/Bin/Un destination; Call result (optional)
	Src    Operand // first source; Ret value (optional); IJmp selector; Arg value
	Src2   Operand // Bin/Cmp second source
	Target Label   // Br/Jmp destination
	Sym    string  // Call: function or intrinsic name
	Table  []Label // IJmp: jump table entries for selector values Lo..Lo+len-1
	Lo     int64   // IJmp: selector value of the first table entry
	ArgIdx int     // Arg: argument position
	// Annul marks a branch whose delay slot executes only when the branch
	// is taken (the SPARC ",a" form); when the branch falls through, the
	// following instruction is fetched but squashed.
	Annul bool
}

// IsCTI reports whether the instruction is a control-transfer instruction
// that terminates a basic block. Calls return to the following instruction
// and do not terminate blocks.
func (in *Inst) IsCTI() bool {
	switch in.Kind {
	case Br, Jmp, IJmp, Ret:
		return true
	}
	return false
}

// SrcOperands returns pointers to the operands the instruction reads.
func (in *Inst) SrcOperands() []*Operand {
	switch in.Kind {
	case Move, Un, Arg, IJmp:
		return []*Operand{&in.Src}
	case Bin, Cmp:
		return []*Operand{&in.Src, &in.Src2}
	case Ret:
		if in.Src.Kind != ONone {
			return []*Operand{&in.Src}
		}
	}
	return nil
}

// UsedRegs appends to dst every register the instruction reads (including
// memory base/index registers of the destination operand) and returns the
// result.
func (in *Inst) UsedRegs(dst []Reg) []Reg {
	for _, o := range in.SrcOperands() {
		switch o.Kind {
		case OReg:
			dst = append(dst, o.Reg)
		case OMem:
			dst = append(dst, o.Reg)
			if o.Index != RegNone {
				dst = append(dst, o.Index)
			}
		}
	}
	// A memory destination reads its base/index registers.
	if in.Dst.Kind == OMem {
		dst = append(dst, in.Dst.Reg)
		if in.Dst.Index != RegNone {
			dst = append(dst, in.Dst.Index)
		}
	}
	return dst
}

// DefReg returns the register the instruction writes, or RegNone.
func (in *Inst) DefReg() Reg {
	switch in.Kind {
	case Move, Bin, Un, Call:
		if in.Dst.Kind == OReg {
			return in.Dst.Reg
		}
	}
	return RegNone
}

// Clone returns a deep copy of the instruction (the jump table, if any, is
// copied too).
func (in *Inst) Clone() Inst {
	out := *in
	if in.Table != nil {
		out.Table = append([]Label(nil), in.Table...)
	}
	return out
}

// GlobalDef describes one global datum: Size cells of memory, optionally
// initialized (missing trailing initializers are zero).
type GlobalDef struct {
	Name string
	Size int64
	Init []int64
}
