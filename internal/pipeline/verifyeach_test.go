package pipeline

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/rtl"
	"repro/internal/verify"
)

// verifyEachSrc is a small program that exercises every pipeline stage:
// a call, a loop (so the loop stage iterates), and enough locals for the
// register allocator to have real work.
const verifyEachSrc = `
int g[8];
int f(int n) {
	int i;
	int s;
	s = 0;
	for (i = 0; i < n; i++) {
		if (i % 3 == 0)
			continue;
		s = s + g[i];
	}
	return s;
}
int main() {
	int i;
	for (i = 0; i < 8; i++) g[i] = i * i;
	return f(8);
}`

func compileFor(t *testing.T, src string) *cfg.Program {
	t.Helper()
	prog, err := mcc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestVerifyEachCleanPipeline is the baseline: a healthy pipeline over a
// real program reports no violations on either machine at any level.
func TestVerifyEachCleanPipeline(t *testing.T) {
	for _, m := range machine.All() {
		for _, lv := range []Level{Simple, Loops, Jumps} {
			st := Optimize(compileFor(t, verifyEachSrc), Config{
				Machine: m, Level: lv, Spec: Spec{VerifyEach: true},
			})
			for _, vi := range st.Verify {
				t.Errorf("%s/%s: %s", m.Name, lv, vi.String())
			}
		}
	}
}

// TestVerifyEachAttribution injects a corruption right after a named pass
// (via the Config.corruptAfter test hook) and asserts the verifier blames
// exactly that pass — the property that makes verify-each a bisection
// tool rather than a smoke test.
func TestVerifyEachAttribution(t *testing.T) {
	cases := []struct {
		name     string
		machine  *machine.Machine
		pass     string // pass to corrupt after
		wantRule verify.Rule
		corrupt  func(f *cfg.Func)
	}{
		{
			// A virtual register surviving allocation: the archetypal
			// regalloc rewrite bug.
			name:     "virtual-reg-after-regalloc",
			machine:  machine.M68020,
			pass:     "regalloc",
			wantRule: verify.RuleVirtualReg,
			corrupt: func(f *cfg.Func) {
				b := f.Entry()
				b.Insts = append([]rtl.Inst{{
					Kind: rtl.Move, Dst: rtl.R(rtl.RV), Src: rtl.R(f.NewVReg()),
				}}, b.Insts...)
			},
		},
		{
			// A mid-loop-stage pass reading a register no path defines:
			// what a bad CSE rewrite looks like.
			name:     "use-before-def-after-cse",
			machine:  machine.M68020,
			pass:     "cse",
			wantRule: verify.RuleUseBeforeDef,
			corrupt: func(f *cfg.Func) {
				b := f.Entry()
				b.Insts = append([]rtl.Inst{{
					Kind: rtl.Move, Dst: rtl.R(rtl.RV), Src: rtl.R(f.NewVReg()),
				}}, b.Insts...)
			},
		},
		{
			// An illegal instruction left in a SPARC delay slot.
			name:     "illegal-delay-slot-fill",
			machine:  machine.SPARC,
			pass:     "delay-slots",
			wantRule: verify.RuleDelaySlot,
			corrupt: func(f *cfg.Func) {
				for _, b := range f.Blocks {
					n := len(b.Insts)
					if n >= 2 && b.Insts[n-2].IsCTI() {
						b.Insts[n-1] = rtl.Inst{Kind: rtl.Cmp, Src: rtl.Imm(1), Src2: rtl.Imm(2)}
						return
					}
				}
			},
		},
		{
			// A conditional branch whose compare was deleted, as a broken
			// dead-variables pass would.
			name:     "cc-pairing-after-dead-variables",
			machine:  machine.M68020,
			pass:     "dead-variables",
			wantRule: verify.RuleCCPairing,
			corrupt: func(f *cfg.Func) {
				for _, b := range f.Blocks {
					for i := range b.Insts {
						if b.Insts[i].Kind == rtl.Cmp {
							b.Insts[i] = rtl.Inst{Kind: rtl.Nop}
							return
						}
					}
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			corrupted := false
			st := Optimize(compileFor(t, verifyEachSrc), Config{
				Machine: c.machine,
				Level:   Jumps,
				Spec:    Spec{VerifyEach: true},
				Jobs:    1, // one injection, into the first function to run
				corruptAfter: func(pass string, f *cfg.Func) {
					// Corrupt only the first function that runs the target
					// pass; one injection is enough to test attribution.
					if pass == c.pass && !corrupted {
						corrupted = true
						c.corrupt(f)
					}
				},
			})
			if !corrupted {
				t.Fatalf("pass %q never ran", c.pass)
			}
			if len(st.Verify) == 0 {
				t.Fatal("corruption not detected")
			}
			for _, vi := range st.Verify {
				if vi.Pass != c.pass {
					t.Errorf("violation blamed on pass %q, want %q: %s", vi.Pass, c.pass, vi.String())
				}
			}
			found := false
			for _, vi := range st.Verify {
				if vi.Rule == c.wantRule {
					found = true
				}
			}
			if !found {
				t.Errorf("no %s violation in %v", c.wantRule, st.Verify)
			}
		})
	}
}

// TestVerifyEachStopsAfterFirstViolatingPass checks that once a pass is
// blamed, later passes of the same function go unchecked: all reported
// violations carry the first offending pass.
func TestVerifyEachStopsAfterFirstViolatingPass(t *testing.T) {
	st := Optimize(compileFor(t, verifyEachSrc), Config{
		Machine: machine.M68020,
		Level:   Jumps,
		Spec:    Spec{VerifyEach: true},
		corruptAfter: func(pass string, f *cfg.Func) {
			// Corrupt after every single pass: only the first one per
			// function may be blamed.
			b := f.Entry()
			b.Insts = append([]rtl.Inst{{
				Kind: rtl.Move, Dst: rtl.R(rtl.RV), Src: rtl.R(f.NewVReg()),
			}}, b.Insts...)
		},
	})
	if len(st.Verify) == 0 {
		t.Fatal("corruption not detected")
	}
	perFunc := map[string]string{}
	for _, vi := range st.Verify {
		if first, ok := perFunc[vi.Func]; ok && first != vi.Pass {
			t.Errorf("%s: violations from two passes (%q then %q): checking did not stop",
				vi.Func, first, vi.Pass)
		} else {
			perFunc[vi.Func] = vi.Pass
		}
	}
}
