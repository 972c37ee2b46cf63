package vm

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/cfg"
	"repro/internal/rtl"
)

// Counts are the dynamic execution counters EASE would report.
type Counts struct {
	// Exec is the total number of instructions executed.
	Exec int64
	// UncondJumps counts executed unconditional transfers (Jmp and IJmp),
	// the quantity the paper's Table 4 tracks.
	UncondJumps int64
	// IndirectJumps counts the IJmp subset of UncondJumps.
	IndirectJumps int64
	// CondBranches counts executed conditional branches; TakenBranches
	// those that transferred control.
	CondBranches  int64
	TakenBranches int64
	// Calls and Rets count executed call/return instructions.
	Calls int64
	Rets  int64
	// Nops counts executed no-ops (unfilled delay slots on the SPARC).
	Nops int64
	// Transfers counts every executed control-transfer opportunity
	// (conditional branches, jumps, indirect jumps, calls, returns); used
	// for the instructions-between-branches statistic.
	Transfers int64
}

// Result is the outcome of a program run.
type Result struct {
	Counts   Counts
	ExitCode int64
	Output   []byte
	Steps    int64
	// Profile holds per-block execution counts (nil unless
	// Config.Profile was set).
	Profile *Profile
}

// Config controls a run.
type Config struct {
	// Input is the byte stream getchar() consumes.
	Input []byte
	// MaxSteps bounds execution (0 = default of 500M instructions).
	MaxSteps int64
	// Layout and OnFetch enable instruction-fetch tracing: OnFetch is
	// called with (address, size) for every executed instruction.
	Layout  *Layout
	OnFetch func(addr, size int64)
	// MemCells limits the data memory (0 = default 1<<22 cells): an access
	// outside [0, MemCells) is ErrFault. Memory is allocated on demand as
	// stores reach it; a cell never written reads 0.
	MemCells int64
	// Trace, when non-nil, receives one line per executed instruction:
	// function, block label, and the instruction text. Expensive; for
	// debugging miscompiles.
	Trace io.Writer
	// Profile enables per-block execution counting (one counter increment
	// per block entered); the counts are returned in Result.Profile.
	Profile bool
}

type errExit struct{ code int64 }

func (errExit) Error() string { return "exit" }

// Sentinel errors, matchable with errors.Is, so callers (notably the
// differential-testing oracle) can classify traps without parsing text.
var (
	// ErrFault marks a wild memory access (out-of-bounds load or store).
	ErrFault = errors.New("memory fault")
	// ErrBudget marks an execution stopped by Config.MaxSteps — usually an
	// accidental infinite loop rather than a genuine fault.
	ErrBudget = errors.New("instruction budget exceeded")
)

// fault is the panic value of a wild memory access; Run reports it as
// ErrFault.
type fault struct{ cell, limit int64 }

func (f fault) String() string {
	return fmt.Sprintf("cell %d outside memory [0, %d)", f.cell, f.limit)
}

// machineState is the whole simulated machine.
type machineState struct {
	fns []function
	// mem is the data memory allocated so far; the cells from len(mem) up
	// to memCells exist but were never written, so they read 0.
	mem      []int64
	memCells int64
	// regs is the register stack: each active frame's registers are the
	// slice regs[base:base+nregs], and rsp is the first free slot.
	regs    []int64
	rsp     int
	sp      int64
	in      []byte
	inPos   int
	out     bytes.Buffer
	counts  Counts
	steps   int64
	max     int64
	onFetch func(addr, size int64)
	trace   io.Writer
	args    []int64 // pending outgoing arguments
	// prof counts block entries per [function][block]; nil when profiling
	// is disabled.
	prof [][]int64
}

// Run executes the program's main function.
func Run(p *cfg.Program, cfgr Config) (res *Result, err error) {
	defer func() {
		// Wild memory accesses surface as panics; report them as runtime
		// errors rather than crashing the host.
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("vm: %w: %v", ErrFault, r)
		}
	}()
	return run(p, cfgr)
}

func run(p *cfg.Program, cfgr Config) (*Result, error) {
	memCells := cfgr.MemCells
	if memCells == 0 {
		memCells = 1 << 22
	}
	max := cfgr.MaxSteps
	if max == 0 {
		max = 500_000_000
	}
	m := &machineState{
		memCells: memCells,
		in:       cfgr.Input,
		max:      max,
		onFetch:  cfgr.OnFetch,
		trace:    cfgr.Trace,
	}
	if m.onFetch != nil && cfgr.Layout == nil {
		return nil, errors.New("vm: OnFetch requires a Layout")
	}
	if cfgr.Profile {
		m.prof = make([][]int64, len(p.Funcs))
		for i, f := range p.Funcs {
			m.prof[i] = make([]int64, len(f.Blocks))
		}
	}
	// Place globals at the bottom of memory.
	gaddr := make(map[string]int64, len(p.Globals))
	addr := int64(1) // cell 0 reserved so no global has address 0 (NULL)
	for _, g := range p.Globals {
		gaddr[g.Name] = addr
		if g.Size < 0 || addr+g.Size > memCells {
			panic(fault{addr + g.Size, memCells})
		}
		for i, v := range g.Init[:min(int64(len(g.Init)), g.Size)] {
			m.write(addr+int64(i), v)
		}
		addr += g.Size
	}
	m.sp = addr
	mainIdx := -1
	for i, f := range p.Funcs {
		if f.Name == "main" {
			mainIdx = i
			break
		}
	}
	if mainIdx < 0 {
		return nil, errors.New("vm: no main function")
	}
	var layout *Layout
	if m.onFetch != nil {
		layout = cfgr.Layout
	}
	m.fns = decode(p, gaddr, layout)
	rv, err := m.call(int32(mainIdx))
	res := &Result{Counts: m.counts, Output: m.out.Bytes(), Steps: m.steps, ExitCode: rv}
	if m.prof != nil {
		res.Profile = buildProfile(p, m.prof)
	}
	var ee errExit
	if errors.As(err, &ee) {
		res.ExitCode = ee.code
		return res, nil
	}
	if err != nil {
		return res, err
	}
	return res, nil
}

func (m *machineState) runtimeErr(f *cfg.Func, format string, args ...interface{}) error {
	return fmt.Errorf("vm: in %s: %s", f.Name, fmt.Sprintf(format, args...))
}

// read returns memory cell a.
func (m *machineState) read(a int64) int64 {
	if uint64(a) < uint64(len(m.mem)) {
		return m.mem[a]
	}
	if a < 0 || a >= m.memCells {
		panic(fault{a, m.memCells})
	}
	return 0
}

// write sets memory cell a, growing the allocated memory to reach it.
func (m *machineState) write(a, v int64) {
	if uint64(a) >= uint64(len(m.mem)) {
		m.grow(a)
	}
	m.mem[a] = v
}

// grow extends the allocated memory to cover cell a, at least doubling it
// but never past memCells.
func (m *machineState) grow(a int64) {
	if a < 0 || a >= m.memCells {
		panic(fault{a, m.memCells})
	}
	n := min(max(a+1, 2*int64(len(m.mem)), 1024), m.memCells)
	m.mem = append(m.mem, make([]int64, n-int64(len(m.mem)))...)
}

// call pushes a frame for function fi, copies the pending arguments into
// its parameters and interprets it to its return, yielding the return
// value.
func (m *machineState) call(fi int32) (int64, error) {
	fn := &m.fns[fi]
	f := fn.src
	if int64(f.NLocals)+m.sp+64 >= m.memCells {
		return 0, m.runtimeErr(f, "out of stack memory")
	}
	fp := m.sp
	m.sp += int64(f.NLocals)
	for i, a := range m.args[:min(len(m.args), f.NParams)] {
		m.write(fp+int64(i), a)
	}
	m.args = m.args[:0]
	base, top := m.rsp, m.rsp+fn.nregs
	if top > len(m.regs) {
		// Active frames keep their slices of the old stack.
		m.regs = make([]int64, max(top, 2*len(m.regs)))
	}
	regs := m.regs[base:top:top]
	clear(regs)
	regs[0], regs[1] = fp, m.sp
	m.rsp = top
	rv, err := m.exec(fn, fi, regs, fp)
	m.rsp, m.sp = base, fp
	return rv, err
}

// Pending control transfers of a block.
const (
	fallThrough = iota
	goTo
	ret
)

// exec interprets function fi in the frame (regs, fp).
func (m *machineState) exec(fn *function, fi int32, regs []int64, fp int64) (int64, error) {
	var prof []int64
	if m.prof != nil {
		prof = m.prof[fi]
	}
	onFetch, trace := m.onFetch, m.trace
	// Condition code operand values at the frame's last Cmp.
	var ccX, ccY int64
	bi := 0
	for {
		if bi >= len(fn.blocks) {
			return 0, m.runtimeErr(fn.src, "control fell off the end of the function")
		}
		if prof != nil {
			prof[bi]++
		}
		// Interpret the block. A control-transfer instruction records the
		// pending transfer; any instructions after it (delay slots) still
		// execute, then the transfer happens — exactly SPARC delay-slot
		// semantics. On machines without delay slots the CTI is last, so
		// behaviour is identical.
		pending := fallThrough
		var target int32
		var badLabel rtl.Label
		var retVal int64
		annulled := false
		b := fn.blocks[bi]
		for pc := b.start; pc < b.end; pc++ {
			in := &fn.insts[pc]
			m.steps++
			if m.steps > m.max {
				return 0, fmt.Errorf("vm: in %s: %w (%d)", fn.src.Name, ErrBudget, m.max)
			}
			m.counts.Exec++
			if onFetch != nil {
				onFetch(in.addr, in.size)
			}
			if annulled {
				// The delay slot of an untaken annulled branch: fetched
				// (counted above, including its cache traffic) but
				// squashed — accounted as a no-op, like the hardware
				// bubble it is.
				annulled = false
				m.counts.Nops++
				if trace != nil {
					fmt.Fprintf(trace, "%s %s\t(squashed) %s\n", fn.src.Name, fn.src.Blocks[bi].Label, in.orig)
				}
				continue
			}
			if trace != nil {
				fmt.Fprintf(trace, "%s %s\t%s\n", fn.src.Name, fn.src.Blocks[bi].Label, in.orig)
			}
			switch in.kind {
			case rtl.Move:
				m.store(regs, fp, &in.dst, m.load(regs, fp, &in.src))
			case rtl.Bin:
				m.store(regs, fp, &in.dst, in.bop.Eval(m.load(regs, fp, &in.src), m.load(regs, fp, &in.src2)))
			case rtl.Un:
				m.store(regs, fp, &in.dst, in.uop.Eval(m.load(regs, fp, &in.src)))
			case rtl.Cmp:
				ccX, ccY = m.load(regs, fp, &in.src), m.load(regs, fp, &in.src2)
			case rtl.Br:
				m.counts.CondBranches++
				m.counts.Transfers++
				if in.rel.Holds(ccX, ccY) {
					m.counts.TakenBranches++
					pending, target, badLabel = goTo, in.target, in.orig.Target
				} else if in.annul {
					annulled = true
				}
			case rtl.Jmp:
				m.counts.UncondJumps++
				m.counts.Transfers++
				pending, target, badLabel = goTo, in.target, in.orig.Target
			case rtl.IJmp:
				m.counts.UncondJumps++
				m.counts.IndirectJumps++
				m.counts.Transfers++
				v := m.load(regs, fp, &in.src) - in.lo
				if v < 0 || v >= int64(len(in.table)) {
					return 0, m.runtimeErr(fn.src, "jump table index out of range: %d", v+in.lo)
				}
				pending, target, badLabel = goTo, in.table[v], in.orig.Table[v]
			case rtl.Arg:
				for len(m.args) <= in.argIdx {
					m.args = append(m.args, 0)
				}
				m.args[in.argIdx] = m.load(regs, fp, &in.src)
			case rtl.Call:
				m.counts.Calls++
				m.counts.Transfers++
				var rv int64
				var err error
				if in.callee >= 0 {
					rv, err = m.call(in.callee)
				} else {
					rv, err = m.intrinsic(fn.src, in)
					m.args = m.args[:0]
				}
				if err != nil {
					return 0, err
				}
				m.store(regs, fp, &in.dst, rv)
			case rtl.Ret:
				m.counts.Rets++
				m.counts.Transfers++
				pending = ret
				if in.src.kind != oNone {
					retVal = m.load(regs, fp, &in.src)
				}
			case rtl.Nop:
				m.counts.Nops++
			default:
				return 0, m.runtimeErr(fn.src, "unknown instruction kind %v", in.kind)
			}
		}
		switch pending {
		case goTo:
			if target < 0 {
				return 0, m.runtimeErr(fn.src, "transfer to unknown label %s", badLabel)
			}
			bi = int(target)
		case ret:
			return retVal, nil
		default:
			bi++ // fall through
		}
	}
}

// load evaluates an operand as a value in the frame (regs, fp). Registers
// and constants, most operands, are read inline.
func (m *machineState) load(regs []int64, fp int64, o *operand) int64 {
	switch o.kind {
	case oReg:
		return regs[o.r]
	case oImm:
		return o.v
	}
	return m.loadMem(regs, fp, o)
}

// loadMem evaluates the operand kinds load does not read inline.
func (m *machineState) loadMem(regs []int64, fp int64, o *operand) int64 {
	switch o.kind {
	case oLocal:
		return m.read(fp + o.v)
	case oAbs:
		return m.read(o.v)
	case oMem:
		return m.read(effAddr(regs, o))
	case oAddrLocal:
		return fp + o.v
	}
	return 0
}

// store writes a value through a destination operand; operands that name
// no location (none, constants, addresses) ignore it. A register is
// written inline.
func (m *machineState) store(regs []int64, fp int64, o *operand, v int64) {
	if o.kind == oReg {
		regs[o.r] = v
		return
	}
	m.storeMem(regs, fp, o, v)
}

// storeMem writes through the operand kinds store does not write inline.
func (m *machineState) storeMem(regs []int64, fp int64, o *operand, v int64) {
	switch o.kind {
	case oLocal:
		m.write(fp+o.v, v)
	case oAbs:
		m.write(o.v, v)
	case oMem:
		m.write(effAddr(regs, o), v)
	}
}

// effAddr is an oMem operand's cell address.
func effAddr(regs []int64, o *operand) int64 {
	a := regs[o.r] + o.v
	if o.x >= 0 {
		a += regs[o.x] * o.scale
	}
	return a
}
