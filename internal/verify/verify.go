// Package verify is the semantic IR verifier: a set of rules that go
// beyond the structural checks of cfg.Validate and hold for the output of
// every well-behaved optimization pass. It is the reproduction's analogue
// of LLVM's -verify-each machine verifier: the pipeline can run it after
// every pass and attribute the first violation to the pass that introduced
// it (see pipeline.Config.VerifyEach).
//
// The rules, in checking order:
//
//	structure              cfg.Validate: targets resolve, CTIs terminate
//	                       blocks, delay-slot shape, well-formed operands
//	unreachable-block      every block is reachable from the entry
//	cc-pairing             every conditional branch is preceded by a
//	                       compare in its own block, with no intervening
//	                       call (calls clobber the condition code)
//	delay-slot             after delay-slot filling: only Move/Bin/Un/Nop
//	                       in a slot, the annul bit only on branches
//	virtual-after-regalloc no virtual register survives register allocation
//	dead-reg-use           after register allocation: no allocatable
//	                       register is live at function entry (a register
//	                       read before any definition)
//	use-before-def         no instruction reads a virtual register that is
//	                       not defined on every path from the entry
//	irreducible-cfg        the flow graph stays reducible (the property
//	                       replication's step-6 rollback exists to protect)
//	translation-validation a duplication certificate failed cut-point
//	                       bisimulation checking (emitted by internal/tv,
//	                       not by Func/Program — see pipeline.Config.TV)
//	phantom-change         a pass reported a change but left the code
//	                       identical (emitted by verify-each mode, not by
//	                       Func/Program — see pipeline.Config.VerifyEach)
//
// A structural violation stops the remaining rules for that function: the
// semantic analyses assume resolvable targets and well-formed blocks.
package verify

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/opt"
	"repro/internal/rtl"
)

// Rule identifies one verifier rule in diagnostics and trace events.
type Rule string

// The verifier's rules. The constant value is the stable rule id used in
// diagnostics, obs trace events, and the mccd wire format.
const (
	RuleStructure    Rule = "structure"
	RuleUnreachable  Rule = "unreachable-block"
	RuleCCPairing    Rule = "cc-pairing"
	RuleDelaySlot    Rule = "delay-slot"
	RuleVirtualReg   Rule = "virtual-after-regalloc"
	RuleDeadReg      Rule = "dead-reg-use"
	RuleUseBeforeDef Rule = "use-before-def"
	RuleIrreducible  Rule = "irreducible-cfg"
	// RuleTranslation is reported by the translation validator
	// (internal/tv) when a duplication certificate fails cut-point
	// bisimulation checking; Func/Program never emit it themselves.
	RuleTranslation Rule = "translation-validation"
	// RulePhantomChange is reported by verify-each mode when a pass
	// reports a change but the function's code is identical before and
	// after it: the pass would keep Figure 3's do-while loop running on
	// unchanged code. Func/Program never emit it themselves.
	RulePhantomChange Rule = "phantom-change"
)

// Violation is one verifier finding. Pass, Stage and Iter are filled by
// verify-each mode (pipeline attribution); plain Func/Program calls leave
// them empty.
type Violation struct {
	Rule  Rule   `json:"rule"`
	Func  string `json:"func"`
	Block string `json:"block,omitempty"`
	// Pass, Stage and Iter attribute the violation to the pipeline pass
	// after which it first appeared ("" when the verifier ran standalone).
	Pass   string `json:"pass,omitempty"`
	Stage  string `json:"stage,omitempty"`
	Iter   int    `json:"iter,omitempty"`
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	s := "verify: " + v.Func
	if v.Block != "" {
		s += ": block " + v.Block
	}
	s += fmt.Sprintf(": %s: %s", v.Rule, v.Detail)
	if v.Pass != "" {
		s += fmt.Sprintf(" (after pass %q", v.Pass)
		if v.Iter > 0 {
			s += fmt.Sprintf(", iteration %d", v.Iter)
		}
		s += ")"
	}
	return s
}

// Error folds a violation list into a single error: nil when empty, the
// first violation's text (with a count of the rest) otherwise.
func Error(vs []Violation) error {
	switch len(vs) {
	case 0:
		return nil
	case 1:
		return errors.New(vs[0].String())
	}
	return fmt.Errorf("%s (and %d more)", vs[0], len(vs)-1)
}

// Options selects which rules apply; the zero value checks an unoptimized
// (pre-regalloc, no delay slots) function.
type Options struct {
	// DelaySlots marks code in filled-delay-slot shape (after the
	// delay-slots pass on a machine that has them): the structural check
	// then requires one slot instruction per CTI and the delay-slot rule
	// checks slot legality.
	DelaySlots bool
	// PostRegalloc marks code after register allocation: virtual registers
	// are forbidden and the dead-register rule applies.
	PostRegalloc bool
	// SkipUnreachable disables the unreachable-block rule. Verify-each mode
	// sets it for mid-pipeline checks: replication and branch chaining
	// legitimately strand blocks that the very next dead-code pass reclaims.
	SkipUnreachable bool
	// MaxViolations caps the findings per function (0 = 8): one corrupt
	// pass tends to violate the same rule in many blocks.
	MaxViolations int
}

func (o Options) maxViolations() int {
	if o.MaxViolations <= 0 {
		return 8
	}
	return o.MaxViolations
}

// Func runs every applicable rule over one function and returns the
// violations found, in rule order (structure first, reducibility last).
func Func(f *cfg.Func, o Options) []Violation {
	var vs []Violation
	limit := o.maxViolations()
	full := func() bool { return len(vs) >= limit }
	add := func(rule Rule, block string, format string, args ...any) {
		vs = append(vs, Violation{
			Rule: rule, Func: f.Name, Block: block,
			Detail: fmt.Sprintf(format, args...),
		})
	}

	// Structural sanity gates everything else: the semantic analyses below
	// assume resolvable targets and well-formed blocks.
	if err := cfg.Validate(f, o.DelaySlots); err != nil {
		add(RuleStructure, "", "%v", err)
		return vs
	}

	if !o.SkipUnreachable {
		reach := cfg.Reachable(f)
		for _, b := range f.Blocks {
			if full() {
				return vs
			}
			if !reach[b] {
				add(RuleUnreachable, b.Label.String(), "block is unreachable from the entry")
			}
		}
	}

	checkCCPairing(f, o, add, full)
	if full() {
		return vs
	}
	if o.DelaySlots {
		checkDelaySlots(f, add, full)
		if full() {
			return vs
		}
	}
	if o.PostRegalloc {
		checkNoVirtual(f, add, full)
		if full() {
			return vs
		}
		checkDeadRegs(f, add, full)
		if full() {
			return vs
		}
	}
	checkUseBeforeDef(f, add, full)
	if full() {
		return vs
	}
	// Reducibility is the mid-pipeline invariant replication relies on.
	// Delay-slot target-filling may retarget a loop's backedge into the
	// tail of a split header, legitimately giving the loop a second entry,
	// so the rule retires once slots are filled.
	if !o.DelaySlots && !cfg.IsReducible(f) {
		add(RuleIrreducible, "", "flow graph is irreducible")
	}
	return vs
}

// Program runs Func over every function of the program.
func Program(p *cfg.Program, o Options) []Violation {
	var vs []Violation
	for _, f := range p.Funcs {
		vs = append(vs, Func(f, o)...)
	}
	return vs
}

// checkCCPairing enforces the condition-code discipline the whole backend
// relies on: a conditional branch must be preceded by a compare in its own
// block, with no call in between (the callee's compares clobber the
// condition code). It also polices the annul bit, which only
// delay-slot filling may set, and only on branches.
func checkCCPairing(f *cfg.Func, o Options, add addFunc, full func() bool) {
	for _, b := range f.Blocks {
		ccValid := false
		for ii := range b.Insts {
			if full() {
				return
			}
			in := &b.Insts[ii]
			switch in.Kind {
			case rtl.Cmp:
				ccValid = true
			case rtl.Call:
				ccValid = false
			case rtl.Br:
				if !ccValid {
					add(RuleCCPairing, b.Label.String(),
						"branch %q has no live compare in its block", in.String())
				}
			}
			if in.Annul {
				switch {
				case in.Kind != rtl.Br:
					add(RuleDelaySlot, b.Label.String(),
						"annul bit on non-branch %q", in.String())
				case !o.DelaySlots:
					add(RuleDelaySlot, b.Label.String(),
						"annul bit on %q before delay-slot filling", in.String())
				}
			}
		}
	}
}

// checkDelaySlots enforces slot legality after filling: the instruction
// occupying a CTI's delay slot must be a simple data instruction or a Nop —
// never a compare, call, argument store, or another CTI. (cfg.Validate has
// already pinned the CTI to the second-to-last position.)
func checkDelaySlots(f *cfg.Func, add addFunc, full func() bool) {
	for _, b := range f.Blocks {
		if full() {
			return
		}
		n := len(b.Insts)
		if n < 2 || !b.Insts[n-2].IsCTI() {
			continue
		}
		slot := &b.Insts[n-1]
		switch slot.Kind {
		case rtl.Move, rtl.Bin, rtl.Un, rtl.Nop:
		default:
			add(RuleDelaySlot, b.Label.String(),
				"illegal instruction %q in a delay slot", slot.String())
		}
	}
}

// checkNoVirtual rejects any virtual register surviving allocation.
func checkNoVirtual(f *cfg.Func, add addFunc, full func() bool) {
	var scratch []rtl.Reg
	for _, b := range f.Blocks {
		for ii := range b.Insts {
			if full() {
				return
			}
			in := &b.Insts[ii]
			scratch = operandRegs(in, scratch[:0])
			for _, r := range scratch {
				if r.IsVirtual() {
					add(RuleVirtualReg, b.Label.String(),
						"virtual register %s in %q after register allocation", r, in.String())
					break
				}
			}
		}
	}
}

// checkDeadRegs reuses the register allocator's own liveness analysis
// (opt.ComputeLiveness): after allocation, an allocatable register that is
// live at the function entry is read on some path before any instruction
// defines it — the classic symptom of a coloring bug assigning two
// interfering ranges the same register.
func checkDeadRegs(f *cfg.Func, add addFunc, full func() bool) {
	e := cfg.ComputeEdges(f)
	lv := opt.ComputeLiveness(f, e)
	var bad []rtl.Reg
	lv.In[0].ForEach(func(r rtl.Reg) {
		if r.IsVirtual() || (r >= rtl.FirstAlloc && r < rtl.VRegBase) {
			bad = append(bad, r)
		}
	})
	lv.Release()
	e.Release()
	sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
	entry := f.Entry().Label.String()
	for _, r := range bad {
		if full() {
			return
		}
		add(RuleDeadReg, entry,
			"register %s is live at the function entry: read before any definition", r)
	}
}

// addFunc is the violation accumulator threaded through the rule checkers.
type addFunc func(rule Rule, block string, format string, args ...any)

// operandRegs appends every register field of the instruction's operands
// (Dst, Src, Src2; register and memory base/index) to dst.
func operandRegs(in *rtl.Inst, dst []rtl.Reg) []rtl.Reg {
	for _, o := range []*rtl.Operand{&in.Dst, &in.Src, &in.Src2} {
		switch o.Kind {
		case rtl.OReg:
			dst = append(dst, o.Reg)
		case rtl.OMem:
			dst = append(dst, o.Reg)
			if o.Index != rtl.RegNone {
				dst = append(dst, o.Index)
			}
		}
	}
	return dst
}
