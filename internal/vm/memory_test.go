package vm_test

import (
	"errors"
	"testing"

	"repro/internal/cfg"
	"repro/internal/rtl"
	"repro/internal/vm"
)

const testCells = 1 << 16

func v(n int) rtl.Reg { return rtl.VRegBase + rtl.Reg(n) }

// runMain runs a one-block main with testCells of memory.
func runMain(t *testing.T, insts ...rtl.Inst) (*vm.Result, error) {
	t.Helper()
	return vm.Run(mkMain(1, insts...), vm.Config{MemCells: testCells})
}

func TestLoadUnwrittenCellReadsZero(t *testing.T) {
	for _, cell := range []int64{testCells - 2, testCells - 1} {
		res, err := runMain(t,
			rtl.Inst{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(cell)},
			rtl.Inst{Kind: rtl.Move, Dst: rtl.R(v(1)), Src: rtl.Mem(v(0), 0)},
			rtl.Inst{Kind: rtl.Ret, Src: rtl.R(v(1))})
		if err != nil || res.ExitCode != 0 {
			t.Errorf("load of cell %d: res = %+v, err = %v", cell, res, err)
		}
	}
}

func TestStoreAtMemoryEdge(t *testing.T) {
	res, err := runMain(t,
		rtl.Inst{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(testCells - 1)},
		rtl.Inst{Kind: rtl.Move, Dst: rtl.Mem(v(0), 0), Src: rtl.Imm(7)},
		rtl.Inst{Kind: rtl.Move, Dst: rtl.R(v(1)), Src: rtl.Mem(v(0), 0)},
		rtl.Inst{Kind: rtl.Ret, Src: rtl.R(v(1))})
	if err != nil || res.ExitCode != 7 {
		t.Fatalf("store at MemCells-1: res = %+v, err = %v", res, err)
	}
	for _, cell := range []int64{testCells, -1} {
		_, err := runMain(t,
			rtl.Inst{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(cell)},
			rtl.Inst{Kind: rtl.Move, Dst: rtl.Mem(v(0), 0), Src: rtl.Imm(7)},
			rtl.Inst{Kind: rtl.Ret, Src: rtl.None()})
		if !errors.Is(err, vm.ErrFault) {
			t.Errorf("store at cell %d: err = %v, want ErrFault", cell, err)
		}
		_, err = runMain(t,
			rtl.Inst{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(cell)},
			rtl.Inst{Kind: rtl.Move, Dst: rtl.R(v(1)), Src: rtl.Mem(v(0), 0)},
			rtl.Inst{Kind: rtl.Ret, Src: rtl.None()})
		if !errors.Is(err, vm.ErrFault) {
			t.Errorf("load at cell %d: err = %v, want ErrFault", cell, err)
		}
	}
}

// TestMemCellsIsALimit runs with a limit no host could allocate: memory
// is only allocated as stores reach it.
func TestMemCellsIsALimit(t *testing.T) {
	p := mkMain(1,
		rtl.Inst{Kind: rtl.Move, Dst: rtl.Local(0), Src: rtl.Imm(5)},
		rtl.Inst{Kind: rtl.Ret, Src: rtl.Local(0)})
	res, err := vm.Run(p, vm.Config{MemCells: 1 << 40})
	if err != nil || res.ExitCode != 5 {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
}

func TestPrintstrStopsAtMemoryLimit(t *testing.T) {
	insts := []rtl.Inst{{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(testCells - 3)}}
	for i, c := range "abc" {
		insts = append(insts, rtl.Inst{Kind: rtl.Move, Dst: rtl.Mem(v(0), int64(i)), Src: rtl.Imm(int64(c))})
	}
	insts = append(insts,
		rtl.Inst{Kind: rtl.Arg, ArgIdx: 0, Src: rtl.R(v(0))},
		rtl.Inst{Kind: rtl.Call, Sym: "printstr", Dst: rtl.None()},
		rtl.Inst{Kind: rtl.Ret, Src: rtl.None()})
	res, err := runMain(t, insts...)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(res.Output); got != "abc" {
		t.Errorf("output = %q, want %q", got, "abc")
	}
}

// TestRecursiveFramesDoNotShareRegisters has f(1) set v5 and call f(0),
// which returns v5 and sets v6; f(1) then returns v5 + f(0) + v6. Every
// frame starts with zeroed registers of its own, so the result is 42; a
// shared register file would give 42 + 42 + 100.
func TestRecursiveFramesDoNotShareRegisters(t *testing.T) {
	f := cfg.NewFunc("f", 1)
	f.NLocals = 1
	entry, rec, base := f.NewBlock(), f.NewBlock(), f.NewBlock()
	entry.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Local(0)},
		{Kind: rtl.Cmp, Src: rtl.R(v(0)), Src2: rtl.Imm(0)},
		{Kind: rtl.Br, BrRel: rtl.Eq, Target: base.Label},
	}
	rec.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(5)), Src: rtl.Imm(42)},
		{Kind: rtl.Arg, ArgIdx: 0, Src: rtl.Imm(0)},
		{Kind: rtl.Call, Sym: "f", Dst: rtl.R(v(7))},
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(v(8)), Src: rtl.R(v(5)), Src2: rtl.R(v(7))},
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(v(8)), Src: rtl.R(v(8)), Src2: rtl.R(v(6))},
		{Kind: rtl.Ret, Src: rtl.R(v(8))},
	}
	base.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(6)), Src: rtl.Imm(100)},
		{Kind: rtl.Ret, Src: rtl.R(v(5))},
	}
	main := mkMain(0,
		rtl.Inst{Kind: rtl.Arg, ArgIdx: 0, Src: rtl.Imm(1)},
		rtl.Inst{Kind: rtl.Call, Sym: "f", Dst: rtl.R(v(1))},
		rtl.Inst{Kind: rtl.Ret, Src: rtl.R(v(1))})
	main.Funcs = append(main.Funcs, f)
	res, err := vm.Run(main, vm.Config{})
	if err != nil || res.ExitCode != 42 {
		t.Fatalf("res = %+v, err = %v, want exit 42", res, err)
	}
}

// TestFramesStartWithZeroedRegisters calls h twice from main; h returns
// v3, which it writes only after reading, so both calls must return 0
// even though the second frame reuses the first one's register slots.
func TestFramesStartWithZeroedRegisters(t *testing.T) {
	h := cfg.NewFunc("h", 0)
	h.NewBlock().Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v(4)), Src: rtl.R(v(3))},
		{Kind: rtl.Move, Dst: rtl.R(v(3)), Src: rtl.Imm(9)},
		{Kind: rtl.Ret, Src: rtl.R(v(4))},
	}
	main := mkMain(0,
		rtl.Inst{Kind: rtl.Call, Sym: "h", Dst: rtl.R(v(1))},
		rtl.Inst{Kind: rtl.Call, Sym: "h", Dst: rtl.R(v(2))},
		rtl.Inst{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(v(1)), Src: rtl.R(v(1)), Src2: rtl.R(v(2))},
		rtl.Inst{Kind: rtl.Ret, Src: rtl.R(v(1))})
	main.Funcs = append(main.Funcs, h)
	res, err := vm.Run(main, vm.Config{})
	if err != nil || res.ExitCode != 0 {
		t.Fatalf("res = %+v, err = %v, want exit 0", res, err)
	}
}
