package asm_test

import (
	"io"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/pipeline"
)

const src = `
int tab[8];
int twice(int x) { return x * 2; }
int main() {
	int i, s;
	s = 0;
	for (i = 0; i < 8; i++)
		tab[i] = twice(i);
	for (i = 0; i < 8; i++)
		s += tab[i];
	printint(s);
	return 0;
}`

func compileFor(t *testing.T, m *machine.Machine) string {
	t.Helper()
	prog, err := mcc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	pipeline.Optimize(prog, pipeline.Config{Machine: m, Level: pipeline.Jumps})
	var b strings.Builder
	if err := asm.Emit(&b, prog, m); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// listing renders prog's encoded listing for m.
func listing(t *testing.T, prog *cfg.Program, m *machine.Machine) string {
	t.Helper()
	var b strings.Builder
	if err := asm.EmitListing(&b, prog, m); err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	return b.String()
}

func TestEmit68020(t *testing.T) {
	out := compileFor(t, machine.M68020)
	for _, want := range []string{
		"move.l", "jsr twice", "rts", ".data tab, 8 cells",
		"main:", "twice:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("68020 asm misses %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "%o0") {
		t.Error("SPARC register leaked into 68020 output")
	}
}

func TestEmitSPARC(t *testing.T) {
	out := compileFor(t, machine.SPARC)
	for _, want := range []string{
		"call twice", "retl", "cmp ", "nop",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SPARC asm misses %q:\n%s", want, out)
		}
	}
	// Loads and stores must use bracketed addresses.
	if !strings.Contains(out, "ld [") && !strings.Contains(out, "st ") {
		t.Errorf("SPARC asm has no load/store syntax:\n%s", out)
	}
	if strings.Contains(out, "(a6)") {
		t.Error("68020 addressing leaked into SPARC output")
	}
}

func TestEmitX86(t *testing.T) {
	out := compileFor(t, machine.X86)
	for _, want := range []string{
		"call twice", "leave; ret", "cmp ", "mov ",
		"main:", "twice:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("x86 asm misses %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "%o0") {
		t.Error("SPARC register leaked into x86 output")
	}
	if strings.Contains(out, "(a6)") {
		t.Error("68020 addressing leaked into x86 output")
	}
}

func TestEmitListingX86(t *testing.T) {
	prog, err := mcc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	pipeline.Optimize(prog, pipeline.Config{Machine: machine.X86, Level: pipeline.Jumps})
	out := listing(t, prog, machine.X86)
	if !strings.Contains(out, "; short") && !strings.Contains(out, "; near") {
		t.Errorf("x86 listing has no fixpoint form annotations:\n%s", out)
	}
	if !strings.Contains(out, "code bytes") {
		t.Errorf("x86 listing misses the code-bytes trailer:\n%s", out)
	}
	// Byte-for-byte determinism: a second emission of a fresh compile of
	// the same source must be identical.
	prog2, err := mcc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	pipeline.Optimize(prog2, pipeline.Config{Machine: machine.X86, Level: pipeline.Jumps})
	if out2 := listing(t, prog2, machine.X86); out != out2 {
		t.Error("x86 encoded listing is not deterministic across compiles")
	}
}

func TestEmitListingAllMachines(t *testing.T) {
	// Encoder-less machines list flat InstSize sums; the listing must
	// still be offset-consistent and render every instruction.
	for _, m := range machine.All() {
		prog, err := mcc.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		pipeline.Optimize(prog, pipeline.Config{Machine: m, Level: pipeline.Jumps})
		out := listing(t, prog, m)
		if !strings.Contains(out, "code bytes") {
			t.Errorf("%s listing misses the code-bytes trailer", m.Name)
		}
	}
}

func TestEmitAnnulledBranch(t *testing.T) {
	// A counted loop on SPARC typically ends with an annulled backward
	// branch after delay-slot filling.
	out := compileFor(t, machine.SPARC)
	if !strings.Contains(out, ",a ") {
		t.Logf("no annulled branch in this program (acceptable):\n%.400s", out)
	}
}

func TestEmitEveryTable3Program(t *testing.T) {
	// The emitter must handle every instruction shape the full pipeline
	// can produce on any registered machine.
	progs := []string{"cal", "compact", "grep", "quicksort", "mincost"}
	for _, name := range progs {
		for _, m := range machine.All() {
			for _, lv := range []pipeline.Level{pipeline.Simple, pipeline.Jumps} {
				p := benchSource(t, name)
				prog, err := mcc.Compile(p)
				if err != nil {
					t.Fatal(err)
				}
				pipeline.Optimize(prog, pipeline.Config{Machine: m, Level: lv})
				if err := asm.Emit(io.Discard, prog, m); err != nil {
					t.Errorf("%s/%s/%s: %v", name, m.Name, lv, err)
				}
			}
		}
	}
}

// benchSource fetches a Table-3 program source.
func benchSource(t *testing.T, name string) string {
	t.Helper()
	p := bench.ProgramByName(name)
	if p == nil {
		t.Fatalf("no program %q", name)
	}
	return p.Source
}
