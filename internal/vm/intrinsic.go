package vm

import (
	"strconv"

	"repro/internal/cfg"
)

// Call targets that are not function indices: the runtime intrinsics and
// a call to a function the program does not define.
const (
	calleeUnknown int32 = -1 - iota
	calleeGetchar
	calleePutchar
	calleePrintint
	calleePrintstr
	calleeExit
)

// intrinsics maps each runtime intrinsic's name to its callee. The set
// mirrors internal/mcc.Intrinsics; vm keeps its own table so the two
// packages stay decoupled.
var intrinsics = map[string]int32{
	"getchar":  calleeGetchar,
	"putchar":  calleePutchar,
	"printint": calleePrintint,
	"printstr": calleePrintstr,
	"exit":     calleeExit,
}

// intrinsic executes one intrinsic call with the pending arguments.
// Intrinsics model the C library the paper could not measure: they consume
// no instruction counts and fetch no code addresses.
func (m *machineState) intrinsic(caller *cfg.Func, in *inst) (int64, error) {
	arg := func(i int) int64 {
		if i < len(m.args) {
			return m.args[i]
		}
		return 0
	}
	switch in.callee {
	case calleeGetchar:
		if m.inPos >= len(m.in) {
			return -1, nil
		}
		c := m.in[m.inPos]
		m.inPos++
		return int64(c), nil
	case calleePutchar:
		m.out.WriteByte(byte(arg(0)))
		return 0, nil
	case calleePrintint:
		m.out.WriteString(strconv.FormatInt(arg(0), 10))
		return 0, nil
	case calleePrintstr:
		for a := arg(0); a >= 0 && a < m.memCells && m.read(a) != 0; a++ {
			m.out.WriteByte(byte(m.read(a)))
		}
		return 0, nil
	case calleeExit:
		return 0, errExit{code: arg(0)}
	}
	return 0, m.runtimeErr(caller, "call of unknown function %q", in.orig.Sym)
}
