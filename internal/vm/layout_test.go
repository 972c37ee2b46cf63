package vm_test

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/rtl"
	"repro/internal/vm"
)

func TestLayoutAddresses(t *testing.T) {
	prog, err := mcc.Compile(`
int f(int x) { return x + 1; }
int main() { return f(41); }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range machine.All() {
		l := vm.NewLayout(prog, m)
		if l.CodeBytes <= 0 {
			t.Fatalf("%s: empty layout", m.Name)
		}
		// Addresses are strictly increasing and sized consistently.
		last := int64(-1)
		for fi, ef := range l.Funcs {
			if l.FuncBase[fi]%m.Align != 0 {
				t.Errorf("%s: function %d base %d not aligned", m.Name, fi, l.FuncBase[fi])
			}
			for bi := range ef.Off {
				for ii := range ef.Off[bi] {
					a, s := l.FuncBase[fi]+ef.Off[bi][ii], ef.Size[bi][ii]
					if a <= last {
						t.Fatalf("%s: addresses not increasing (%d after %d)", m.Name, a, last)
					}
					if s <= 0 {
						t.Fatalf("%s: non-positive size", m.Name)
					}
					last = a + s - 1
				}
			}
		}
		if last+1 > l.CodeBytes {
			t.Errorf("%s: CodeBytes %d < end %d", m.Name, l.CodeBytes, last+1)
		}
	}
}

func TestFetchTraceMatchesExec(t *testing.T) {
	prog, err := mcc.Compile(`
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 30; i++)
		s += i;
	printint(s);
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	pipeline.Optimize(prog, pipeline.Config{Machine: machine.SPARC, Level: pipeline.Jumps})
	layout := vm.NewLayout(prog, machine.SPARC)
	var fetches int64
	res, err := vm.Run(prog, vm.Config{
		Layout:  layout,
		OnFetch: func(addr, size int64) { fetches++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if fetches != res.Counts.Exec {
		t.Errorf("fetches %d != executed %d", fetches, res.Counts.Exec)
	}
}

// TestAnnulledBranchSemantics builds a counting loop with an annulled
// backward branch by hand and checks both the result and the no-op
// accounting.
func TestAnnulledBranchSemantics(t *testing.T) {
	v0 := rtl.VRegBase
	f := cfg.NewFunc("main", 0)
	b0 := f.NewBlock()
	tail := f.NewBlock()
	exitB := f.NewBlock()
	// b0: i = 0            (the peeled first instruction)
	// tail: i++; cmp i,5; br<(annul) tail; slot: i++ — wait, the slot
	// replays the peeled instruction; here we use a self-contained shape:
	// tail: cmp; br<10 (annul) -> tail2... keep it simple: the annulled
	// slot holds an increment that must execute only when taken.
	b0.Insts = []rtl.Inst{
		{Kind: rtl.Move, Dst: rtl.R(v0), Src: rtl.Imm(0)},
		{Kind: rtl.Move, Dst: rtl.R(v0 + 1), Src: rtl.Imm(0)},
	}
	tail.Insts = []rtl.Inst{
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(v0), Src: rtl.R(v0), Src2: rtl.Imm(1)},
		{Kind: rtl.Cmp, Src: rtl.R(v0), Src2: rtl.Imm(5)},
		{Kind: rtl.Br, BrRel: rtl.Lt, Target: tail.Label, Annul: true},
		// Annulled slot: counts taken iterations only.
		{Kind: rtl.Bin, BOp: rtl.Add, Dst: rtl.R(v0 + 1), Src: rtl.R(v0 + 1), Src2: rtl.Imm(1)},
	}
	exitB.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.R(v0 + 1)}}
	prog := &cfg.Program{Funcs: []*cfg.Func{f}}
	res, err := vm.Run(prog, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// i runs 1..5; branch taken for i=1..4 → slot executed 4 times; the
	// final fall-through squashes the slot once.
	if res.ExitCode != 4 {
		t.Errorf("exit = %d, want 4 (slot must not execute on fall-through)", res.ExitCode)
	}
	if res.Counts.Nops != 1 {
		t.Errorf("squashed slots = %d, want 1", res.Counts.Nops)
	}
}

// TestDelaySlotEndToEnd compiles for SPARC and verifies the executed
// instruction stream still computes the right answer with slots filled.
func TestDelaySlotEndToEnd(t *testing.T) {
	prog, err := mcc.Compile(`
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 100; i++)
		s = s + i * 2;
	printint(s);
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	pipeline.Optimize(prog, pipeline.Config{Machine: machine.SPARC, Level: pipeline.Jumps})
	res, err := vm.Run(prog, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Output) != "9900" {
		t.Errorf("output = %q, want 9900", res.Output)
	}
	// Every Br/Jmp/IJmp/Ret must be followed by exactly one slot
	// instruction within its block.
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for ii := range b.Insts {
				switch b.Insts[ii].Kind {
				case rtl.Br, rtl.Jmp, rtl.IJmp, rtl.Ret:
					if ii+1 >= len(b.Insts) {
						t.Errorf("%s: CTI without delay slot: %v", f.Name, &b.Insts[ii])
					}
				}
			}
		}
	}
	_ = opt.FillDelaySlots // keep the import honest
}
