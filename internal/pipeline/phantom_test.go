package pipeline

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/machine"
	"repro/internal/opt"
	"repro/internal/rtl"
	"repro/internal/verify"
)

// TestPhantomChange drives verify-each's pass runner directly with a pass
// that claims a change but makes none: it must be reported as
// phantom-change and attributed to its pass, stage and iteration, while
// passes that report truthfully stay clean.
func TestPhantomChange(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		f := compileFor(t, verifyEachSrc).Funcs[0]
		c := Config{Machine: machine.M68020, Spec: Spec{VerifyEach: true}}
		if corrupt {
			// A corruption injected after the pass must not mask the
			// phantom: the "after" fingerprint is taken before the hook.
			c.corruptAfter = func(pass string, f *cfg.Func) {
				if pass == "phantom" {
					b := f.Entry()
					b.Insts = append([]rtl.Inst{{
						Kind: rtl.Move, Dst: rtl.R(rtl.RV), Src: rtl.R(f.NewVReg()),
					}}, b.Insts...)
				}
			}
		}
		pr := &passRunner{f: f, stage: "loop", iter: 3, ver: &verifier{
			cfg: &c, checkEach: true, opts: verify.Options{SkipUnreachable: true},
		}}
		if !pr.run("promote-locals", func() bool { return opt.PromoteLocals(f) }) {
			t.Fatal("promote-locals changed nothing; the fixture needs a local")
		}
		pr.run("quiet", func() bool { return false })
		if len(pr.ver.violations) != 0 {
			t.Fatalf("truthful passes reported: %v", pr.ver.violations)
		}
		pr.run("phantom", func() bool { return true })
		vs := pr.ver.violations
		if len(vs) == 0 {
			t.Fatalf("corrupt=%t: phantom change not reported", corrupt)
		}
		v := vs[0]
		if v.Rule != verify.RulePhantomChange || v.Pass != "phantom" || v.Stage != "loop" || v.Iter != 3 || v.Func != f.Name {
			t.Errorf("corrupt=%t: got %s, want phantom-change after pass \"phantom\" (loop, iteration 3)", corrupt, v)
		}
	}
}
