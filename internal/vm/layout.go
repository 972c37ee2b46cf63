// Package vm executes RTL programs, playing the role of the paper's EASE
// environment: it produces exact dynamic instruction counts and an
// instruction-fetch address trace for the cache simulations. Intrinsic
// runtime routines (the stand-ins for the C library, which the paper could
// not measure either) execute but are not counted and fetch no addresses.
package vm

import (
	"repro/internal/cfg"
	"repro/internal/encode"
	"repro/internal/machine"
)

// Layout assigns a code address and byte size to every instruction of a
// program for one machine: it is the encoder's layout. Instruction ii of
// block bi of function fi starts at FuncBase[fi] + Funcs[fi].Off[bi][ii]
// and takes Funcs[fi].Size[bi][ii] bytes. Addresses are only used for
// instruction-cache simulation; data lives in a separate cell-addressed
// space.
type Layout = encode.Program

// NewLayout lays the program out contiguously, function by function in
// program order, blocks in positional order. Sizes and offsets come from
// internal/encode: machines with an Encoder get exact short/near jump
// sizes from the branch-displacement fixpoint, machines without one get
// flat InstSize sums.
func NewLayout(p *cfg.Program, m *machine.Machine) *Layout {
	return encode.LayoutProgram(p, m)
}
