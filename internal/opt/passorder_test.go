package opt_test

import (
	"math/rand"
	"testing"

	"repro/internal/cfg"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/opt"
	"repro/internal/replicate"
	"repro/internal/vm"
)

// passOrderSources are small programs with diverse control flow for the
// pass-interaction fuzz below.
var passOrderSources = []string{
	`int main() {
		int i, s;
		s = 0;
		for (i = 0; i < 30; i++)
			if (i % 3 == 0) s += i; else s -= 1;
		printint(s);
		return 0;
	}`,
	`int a[16];
	int main() {
		int i, j;
		for (i = 0; i < 16; i++) a[i] = i * 5 % 7;
		j = 0;
		while (j < 16 && a[j] != 6) j++;
		printint(j); putchar(' '); printint(a[j]);
		return 0;
	}`,
	`int f(int n) { return n <= 1 ? 1 : n * f(n - 1); }
	int main() {
		int k;
		for (k = 1; k < 8; k++) { printint(f(k)); putchar(' '); }
		return 0;
	}`,
	`int main() {
		int x, steps;
		x = 0; steps = 0;
	again:
		x += 3;
		if (x % 7 == 0) goto out;
		steps++;
		if (steps < 50) goto again;
	out:
		printint(x); putchar(' '); printint(steps);
		return 0;
	}`,
}

// TestPassOrderFuzz applies random sequences of optimization passes (a
// superset of any order the pipeline would use) and checks that structure
// and behaviour survive every prefix. This catches pass-interaction bugs
// that the fixed Figure-3 order would mask.
func TestPassOrderFuzz(t *testing.T) {
	type pass struct {
		name string
		run  func(f *cfg.Func, m *machine.Machine)
	}
	passes := []pass{
		{"chain", func(f *cfg.Func, m *machine.Machine) { opt.BranchChaining(f) }},
		{"dce", func(f *cfg.Func, m *machine.Machine) { opt.DeadCodeElimination(f) }},
		{"reorder", func(f *cfg.Func, m *machine.Machine) { cfg.ReorderBlocks(f) }},
		{"promote", func(f *cfg.Func, m *machine.Machine) { opt.PromoteLocals(f) }},
		{"cse", func(f *cfg.Func, m *machine.Machine) { opt.CommonSubexpressions(f, m) }},
		{"deadvar", func(f *cfg.Func, m *machine.Machine) { opt.DeadVariableElimination(f) }},
		{"motion", func(f *cfg.Func, m *machine.Machine) { opt.CodeMotion(f) }},
		{"strength", func(f *cfg.Func, m *machine.Machine) { opt.StrengthReduction(f) }},
		{"fold", func(f *cfg.Func, m *machine.Machine) { opt.FoldConstants(f) }},
		{"foldbr", func(f *cfg.Func, m *machine.Machine) { opt.FoldBranches(f) }},
		{"instsel", func(f *cfg.Func, m *machine.Machine) { opt.InstructionSelection(f, m) }},
		{"merge", func(f *cfg.Func, m *machine.Machine) { opt.MergeBlocks(f) }},
		{"deljmp", func(f *cfg.Func, m *machine.Machine) { cfg.DeleteJumpsToNext(f) }},
		{"jumps", func(f *cfg.Func, m *machine.Machine) { replicate.JUMPS(f, replicate.Options{}) }},
		{"loops", func(f *cfg.Func, m *machine.Machine) { replicate.LOOPS(f, replicate.Options{}) }},
	}
	trials := 60
	if testing.Short() {
		trials = 10
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < trials; trial++ {
		src := passOrderSources[trial%len(passOrderSources)]
		m := machine.M68020
		if trial%2 == 1 {
			m = machine.SPARC
		}
		ref, err := mcc.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := vm.Run(ref, vm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := mcc.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range prog.Funcs {
			machine.Legalize(f, m)
		}
		var applied []string
		for step := 0; step < 12; step++ {
			p := passes[r.Intn(len(passes))]
			applied = append(applied, p.name)
			for _, f := range prog.Funcs {
				p.run(f, m)
			}
			for _, f := range prog.Funcs {
				if err := cfg.Validate(f, false); err != nil {
					t.Fatalf("trial %d after %v: %v\n%s", trial, applied, err, prog)
				}
			}
			got, err := vm.Run(prog, vm.Config{MaxSteps: 10_000_000})
			if err != nil {
				t.Fatalf("trial %d after %v: run: %v\n%s", trial, applied, err, prog)
			}
			if string(got.Output) != string(want.Output) {
				t.Fatalf("trial %d after %v: output %q, want %q\n%s",
					trial, applied, got.Output, want.Output, prog)
			}
		}
	}
}
