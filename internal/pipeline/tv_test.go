package pipeline

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/machine"
	"repro/internal/replicate"
	"repro/internal/rtl"
	"repro/internal/tv"
	"repro/internal/verify"
)

// TestTVCleanPipeline is the acceptance baseline: with the translation
// validator enabled, every machine at every level compiles the fixture
// with zero rejections, the engine actually emits certificates at the
// replicating levels, and the user's own OnCertificate hook keeps firing
// (the pipeline chains it, never replaces it).
func TestTVCleanPipeline(t *testing.T) {
	for _, m := range machine.All() {
		for _, lv := range AllLevels() {
			certs := 0
			st := Optimize(compileFor(t, verifyEachSrc), Config{
				Machine: m, Level: lv,
				Jobs: 1, // the hook's counter is not synchronized
				Spec: Spec{TV: true, Replication: replicate.Options{
					OnCertificate: func(*cfg.Func, *tv.Certificate) { certs++ },
				}},
			})
			for _, vi := range st.Verify {
				t.Errorf("%s/%s: %s", m.Name, lv, vi.String())
			}
			if lv >= Jumps && certs == 0 {
				t.Errorf("%s/%s: no certificates emitted at a replicating level", m.Name, lv)
			}
		}
	}
}

// TestTVCleanPipelineParallel: the per-function parallel path carries TV
// rejections (and their absence) identically to the serial path.
func TestTVCleanPipelineParallel(t *testing.T) {
	st := Optimize(compileFor(t, verifyEachSrc), Config{
		Machine: machine.M68020, Level: Jumps, Spec: Spec{TV: true}, Jobs: 4,
	})
	for _, vi := range st.Verify {
		t.Errorf("parallel TV pipeline: %s", vi.String())
	}
}

// TestTVRejectionAttribution injects miscompiles through the corruptCert
// hook — which fires between certificate emission and validation, exactly
// where a buggy engine would sit — and asserts every rejection carries
// RuleTranslation and blames the replicate pass.
func TestTVRejectionAttribution(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(f *cfg.Func, c *tv.Certificate) bool // true when injected
	}{
		{
			// The certificate lies about what it did.
			name: "forged-kind",
			corrupt: func(f *cfg.Func, c *tv.Certificate) bool {
				c.Kind = "forged"
				return true
			},
		},
		{
			// The engine produced a copy that diverges from its original:
			// a real miscompile, caught by body comparison.
			name: "corrupted-copy-body",
			corrupt: func(f *cfg.Func, c *tv.Certificate) bool {
				if c.Kind != tv.KindReplication || len(c.Copies) == 0 {
					return false
				}
				cp := f.BlockByLabel(c.Copies[0].Copy)
				if cp == nil || len(cp.Insts) == 0 {
					return false
				}
				cp.Insts[0] = rtl.Inst{Kind: rtl.Move, Dst: rtl.R(rtl.RV), Src: rtl.Imm(99)}
				return true
			},
		},
		{
			// The certificate claims a different source edge than the one
			// the splice consumed.
			name: "forged-source-edge",
			corrupt: func(f *cfg.Func, c *tv.Certificate) bool {
				if c.Kind != tv.KindReplication {
					return false
				}
				c.Target = c.Block
				return true
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			injected := false
			st := Optimize(compileFor(t, verifyEachSrc), Config{
				Machine: machine.M68020,
				Level:   Jumps,
				Spec:    Spec{TV: true},
				Jobs:    1, // one injection, into the first function to run
				corruptCert: func(f *cfg.Func, c *tv.Certificate) {
					if !injected {
						injected = tc.corrupt(f, c)
					}
				},
			})
			if !injected {
				t.Fatal("no certificate of the targeted shape was emitted")
			}
			if len(st.Verify) == 0 {
				t.Fatal("injected miscompile not rejected")
			}
			for _, vi := range st.Verify {
				if vi.Rule != verify.RuleTranslation {
					t.Errorf("rejection carries rule %q, want %q", vi.Rule, verify.RuleTranslation)
				}
				if vi.Pass != "replicate" {
					t.Errorf("rejection blamed on pass %q, want %q: %s", vi.Pass, "replicate", vi.String())
				}
			}
		})
	}
}

// TestVerifyEachAttributionUnderTV re-runs the PR-5 attribution suite with
// the translation validator enabled alongside verify-each: every injected
// corruption is still rejected with the correct pass named, and TV adds no
// false alarms of its own on the uncorrupted passes.
func TestVerifyEachAttributionUnderTV(t *testing.T) {
	cases := []struct {
		name     string
		machine  *machine.Machine
		pass     string
		wantRule verify.Rule
		corrupt  func(f *cfg.Func)
	}{
		{
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
				Spec:    Spec{VerifyEach: true, TV: true},
				Jobs:    1, // one injection, into the first function to run
				corruptAfter: func(pass string, f *cfg.Func) {
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

// TestTVUndoInjection pins the `-inject undo` property at the pipeline
// level: force-rolling-back every guarded duplication leaves only
// jump-to-next deletions certified (rolled-back candidates emit nothing)
// and produces zero TV rejections.
func TestTVUndoInjection(t *testing.T) {
	var kinds []tv.Kind
	st := Optimize(compileFor(t, verifyEachSrc), Config{
		Machine: machine.M68020,
		Level:   Jumps,
		Jobs:    1, // the hook's slice is not synchronized
		Spec: Spec{TV: true, Replication: replicate.Options{
			ForceRollback: true,
			OnCertificate: func(_ *cfg.Func, c *tv.Certificate) {
				kinds = append(kinds, c.Kind)
			},
		}},
	})
	for _, vi := range st.Verify {
		t.Errorf("undo injection produced a TV rejection: %s", vi.String())
	}
	if st.Replication.Rollbacks == 0 {
		t.Fatal("ForceRollback rolled nothing back; the injection is dead")
	}
	for _, k := range kinds {
		if k != tv.KindJumpDelete {
			t.Errorf("rolled-back candidate emitted a %s certificate", k)
		}
	}
}
