// Package cfg provides basic blocks, whole functions, and the control-flow
// analyses (edges, dominators, natural loops, reducibility) the optimizer
// and the code-replication algorithms are built on.
package cfg

import (
	"fmt"
	"strings"

	"repro/internal/rtl"
)

// Block is a basic block: a label followed by straight-line RTLs. The last
// instruction may be a control-transfer instruction; otherwise control falls
// through to the positionally next block.
type Block struct {
	Label rtl.Label
	Insts []rtl.Inst

	// Index is the block's position in Func.Blocks. Maintained by
	// Func.Renumber, which every structural mutation must call.
	Index int
}

// Term returns a pointer to the block's terminating control-transfer
// instruction, or nil if the block ends by falling through.
func (b *Block) Term() *rtl.Inst {
	if n := len(b.Insts); n > 0 && b.Insts[n-1].IsCTI() {
		return &b.Insts[n-1]
	}
	return nil
}

// NumRTLs returns the instruction count of the block.
func (b *Block) NumRTLs() int { return len(b.Insts) }

// Clone returns a deep copy of the block (instructions copied, same label).
func (b *Block) Clone() *Block {
	nb := &Block{Label: b.Label, Index: b.Index, Insts: make([]rtl.Inst, len(b.Insts))}
	for i := range b.Insts {
		nb.Insts[i] = b.Insts[i].Clone()
	}
	return nb
}

// Func is one function: its blocks in positional (layout) order. The entry
// block is Blocks[0].
type Func struct {
	Name    string
	NParams int
	// NLocals is the frame size in cells. Parameters occupy slots
	// 0..NParams-1; remaining locals, arrays and spill slots follow.
	NLocals int
	// NVRegs is the number of virtual registers allocated so far.
	NVRegs int
	// ScalarLocals lists the frame offsets of single-cell locals and
	// parameters; the register-assignment pass may promote these to
	// registers unless their address is taken.
	ScalarLocals []int64
	Blocks       []*Block
	// nextLabel is the next unused label number.
	nextLabel rtl.Label
	// scratch holds reusable analysis buffers (see Scratch). Lazily
	// created, never cloned: a cloned function starts with a cold arena.
	scratch *Scratch
}

// NewFunc returns an empty function.
func NewFunc(name string, nparams int) *Func {
	return &Func{Name: name, NParams: nparams}
}

// NewLabel returns a fresh, unused label.
func (f *Func) NewLabel() rtl.Label {
	l := f.nextLabel
	f.nextLabel++
	return l
}

// LabelMark returns the current fresh-label high-water mark: the label the
// next NewLabel call would return. Pair with ResetLabels to undo
// speculative label allocation.
func (f *Func) LabelMark() rtl.Label { return f.nextLabel }

// ResetLabels rewinds the fresh-label counter to a mark previously obtained
// from LabelMark. The caller must have removed every block labeled at or
// above the mark; the replication engine uses this to roll back a
// speculative splice without cloning the whole function.
func (f *Func) ResetLabels(mark rtl.Label) { f.nextLabel = mark }

// NewVReg returns a fresh virtual register.
func (f *Func) NewVReg() rtl.Reg {
	r := rtl.VRegBase + rtl.Reg(f.NVRegs)
	f.NVRegs++
	return r
}

// NewBlock appends a new empty block with a fresh label and returns it.
func (f *Func) NewBlock() *Block {
	return f.AppendBlock(f.NewLabel())
}

// AppendBlock appends a new empty block with the given (already reserved)
// label and returns it.
func (f *Func) AppendBlock(l rtl.Label) *Block {
	b := &Block{Label: l}
	f.Blocks = append(f.Blocks, b)
	f.Renumber()
	return b
}

// Renumber refreshes every block's positional Index. Call after any
// insertion, deletion or reordering of blocks.
func (f *Func) Renumber() {
	for i, b := range f.Blocks {
		b.Index = i
	}
}

// BlockByLabel returns the block with the given label, or nil.
func (f *Func) BlockByLabel(l rtl.Label) *Block {
	for _, b := range f.Blocks {
		if b.Label == l {
			return b
		}
	}
	return nil
}

// Entry returns the entry block (nil for an empty function).
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NumRTLs returns the total instruction count of the function.
func (f *Func) NumRTLs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Insts)
	}
	return n
}

// InsertBlocksAfter splices the given blocks immediately after block at
// position idx and renumbers.
func (f *Func) InsertBlocksAfter(idx int, blocks ...*Block) {
	tail := append([]*Block{}, f.Blocks[idx+1:]...)
	f.Blocks = append(f.Blocks[:idx+1], blocks...)
	f.Blocks = append(f.Blocks, tail...)
	f.Renumber()
}

// RemoveBlocks deletes the blocks whose labels are in the set and renumbers.
func (f *Func) RemoveBlocks(dead map[rtl.Label]bool) {
	out := f.Blocks[:0]
	for _, b := range f.Blocks {
		if !dead[b.Label] {
			out = append(out, b)
		}
	}
	f.Blocks = out
	f.Renumber()
}

// Clone returns a deep copy of the function (see Program.Clone).
func (f *Func) Clone() *Func {
	nf := &Func{
		Name:         f.Name,
		NParams:      f.NParams,
		NLocals:      f.NLocals,
		NVRegs:       f.NVRegs,
		ScalarLocals: append([]int64(nil), f.ScalarLocals...),
		nextLabel:    f.nextLabel,
		Blocks:       make([]*Block, len(f.Blocks)),
	}
	for i, b := range f.Blocks {
		nf.Blocks[i] = b.Clone()
	}
	nf.Renumber()
	return nf
}

// String renders the function as labeled RTL listing.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(params=%d, locals=%d):\n", f.Name, f.NParams, f.NLocals)
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "%s:\n", blk.Label)
		for i := range blk.Insts {
			fmt.Fprintf(&b, "\t%s\n", &blk.Insts[i])
		}
	}
	return b.String()
}

// Program is a whole translation unit: functions plus global data.
type Program struct {
	Funcs   []*Func
	Globals []rtl.GlobalDef
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// NumRTLs returns the total static instruction count of the program.
func (p *Program) NumRTLs() int {
	n := 0
	for _, f := range p.Funcs {
		n += f.NumRTLs()
	}
	return n
}

// String renders the whole program.
func (p *Program) String() string {
	var b strings.Builder
	for _, f := range p.Funcs {
		b.WriteString(f.String())
		b.WriteString("\n")
	}
	return b.String()
}
