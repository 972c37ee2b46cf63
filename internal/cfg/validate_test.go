package cfg_test

import (
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/pipeline"
	"repro/internal/rtl"
)

func TestValidateAcceptsPipelineOutput(t *testing.T) {
	src := `
int f(int n) { int s, i; s = 0; for (i = 0; i < n; i++) s += i; return s; }
int main() { printint(f(10)); return 0; }`
	for _, m := range machine.All() {
		for _, lv := range []pipeline.Level{pipeline.Simple, pipeline.Loops, pipeline.Jumps} {
			prog, err := mcc.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			pipeline.Optimize(prog, pipeline.Config{Machine: m, Level: lv})
			for _, f := range prog.Funcs {
				if err := cfg.Validate(f, m.DelaySlots); err != nil {
					t.Errorf("%s/%s: %v", m.Name, lv, err)
				}
			}
		}
	}
}

func TestValidateRejections(t *testing.T) {
	mk := func(build func(f *cfg.Func)) error {
		f := cfg.NewFunc("t", 0)
		build(f)
		return cfg.Validate(f, false)
	}
	cases := []struct {
		name string
		err  string
		f    func(f *cfg.Func)
	}{
		{"empty", "no blocks", func(f *cfg.Func) {}},
		{"dangling target", "unknown label", func(f *cfg.Func) {
			b := f.NewBlock()
			b.Insts = []rtl.Inst{{Kind: rtl.Jmp, Target: 99}}
		}},
		{"code after CTI", "after the CTI", func(f *cfg.Func) {
			b := f.NewBlock()
			b.Insts = []rtl.Inst{
				{Kind: rtl.Ret, Src: rtl.None()},
				{Kind: rtl.Nop},
			}
		}},
		{"two CTIs", "two CTIs", func(f *cfg.Func) {
			b := f.NewBlock()
			b.Insts = []rtl.Inst{
				{Kind: rtl.Jmp, Target: b.Label},
				{Kind: rtl.Ret, Src: rtl.None()},
			}
		}},
		{"empty table", "empty jump table", func(f *cfg.Func) {
			b := f.NewBlock()
			b.Insts = []rtl.Inst{{Kind: rtl.IJmp, Src: rtl.R(rtl.VRegBase)}}
		}},
		{"assign to constant", "assignment to a constant", func(f *cfg.Func) {
			b := f.NewBlock()
			b.Insts = []rtl.Inst{
				{Kind: rtl.Move, Dst: rtl.Imm(3), Src: rtl.Imm(4)},
				{Kind: rtl.Ret, Src: rtl.None()},
			}
		}},
		{"call without symbol", "call without a symbol", func(f *cfg.Func) {
			b := f.NewBlock()
			b.Insts = []rtl.Inst{
				{Kind: rtl.Call, Dst: rtl.None()},
				{Kind: rtl.Ret, Src: rtl.None()},
			}
		}},
	}
	for _, c := range cases {
		err := mk(c.f)
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.err)
		}
	}
}

func TestValidateDelaySlotDiscipline(t *testing.T) {
	f := cfg.NewFunc("t", 0)
	b := f.NewBlock()
	b.Insts = []rtl.Inst{{Kind: rtl.Ret, Src: rtl.None()}}
	// Without a slot, SPARC-mode validation must complain.
	if err := cfg.Validate(f, true); err == nil {
		t.Error("missing delay slot not caught")
	}
	b.Insts = append(b.Insts, rtl.Inst{Kind: rtl.Nop})
	if err := cfg.Validate(f, true); err != nil {
		t.Errorf("valid slotted block rejected: %v", err)
	}
}
