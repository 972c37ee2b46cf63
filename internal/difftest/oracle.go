package difftest

import (
	"errors"
	"fmt"

	"repro/internal/cfg"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/pipeline"
	"repro/internal/replicate"
	"repro/internal/verify"
	"repro/internal/vm"
)

// Kind is the oracle's violation taxonomy: one typed identifier per way a
// cell can fail. The constant value is the stable wire name used in
// verdict JSON and fuzzjump reports — consumers compare against the
// constants, never against re-spelled strings.
type Kind string

// Violation kinds reported by the oracle.
const (
	// VTrap: the optimized build trapped (memory fault, budget, runtime
	// error) although the unoptimized reference ran to completion.
	VTrap Kind = "trap"
	// VOutput: the optimized build produced different output bytes.
	VOutput Kind = "output-mismatch"
	// VExit: the optimized build returned a different exit code.
	VExit Kind = "exit-mismatch"
	// VStructure: the verifier's structure rule (cfg.ValidateProgram)
	// failed after the pipeline (dangling target, mid-block CTI, bad
	// delay-slot shape, malformed operand).
	VStructure Kind = "invalid-structure"
	// VIrreducible: a function's flow graph is irreducible after the
	// pipeline — the reducibility rollback (step 6) failed its job.
	VIrreducible Kind = "irreducible-cfg"
	// VSemantic: a semantic rule of the IR verifier (internal/verify)
	// failed — use-before-def, dead-register read, condition-code pairing,
	// delay-slot legality, or an unreachable block. With Options.VerifyEach
	// the detail names the pipeline pass that introduced the violation.
	VSemantic Kind = "semantic-violation"
	// VTranslation: the translation validator (internal/tv) rejected a
	// duplication certificate — the engine applied an edit it could not
	// prove semantics-preserving. The detail names the pipeline pass,
	// certificate kind and failed obligation.
	VTranslation Kind = "tv-rejection"
	// VResidual: after a JUMPS pipeline, re-running the replication
	// algorithm still lowers the static unconditional-jump count — a
	// replicable jump survived although no growth cap was hit.
	VResidual Kind = "residual-replicable-jump"
	// VDynamic: the EASE dynamic counters regressed — the JUMPS build
	// executed more unconditional jumps than the SIMPLE build.
	VDynamic Kind = "dynamic-jumps-regression"
	// VDynamicCond: the DUPS build executed more conditional branches than
	// the JUMPS build — conditional elimination made the program branch
	// more, which the fold profitability model must never allow.
	VDynamicCond Kind = "dynamic-cond-branches-regression"
)

// Violation is one oracle finding for one measurement cell.
type Violation struct {
	Machine string `json:"machine"`
	Level   string `json:"level"`
	Kind    Kind   `json:"kind"`
	Detail  string `json:"detail"`
}

// String renders the violation as "machine/level: kind: detail".
func (v Violation) String() string {
	return fmt.Sprintf("%s/%s: %s: %s", v.Machine, v.Level, v.Kind, v.Detail)
}

// Verdict is the oracle's result for one program.
type Verdict struct {
	Seed       int64       `json:"seed,omitempty"`
	Skipped    bool        `json:"skipped,omitempty"`
	SkipReason string      `json:"skip_reason,omitempty"`
	Violations []Violation `json:"violations,omitempty"`
	// Cells is the number of (machine, level) cells measured.
	Cells int `json:"cells"`
}

// Failed reports whether any violation was found.
func (v *Verdict) Failed() bool { return len(v.Violations) > 0 }

// Options configures one oracle check. The zero value checks the whole
// machine registry at all four levels with default budgets and all
// invariants on.
type Options struct {
	// Machines to compile for (nil = the whole machine registry).
	Machines []*machine.Machine
	// Levels to compile at (nil = pipeline.AllLevels()).
	Levels []pipeline.Level
	// Spec tunes — or, for the oracle's own self-test, deliberately
	// breaks — every cell's compile. With VerifyEach a violation is
	// attributed to the pass that introduced it instead of only being
	// caught by the post-pipeline check (slower; the fuzz smoke and
	// nightly campaigns enable it); with TV every rejected certificate
	// becomes a VTranslation verdict attributed to the pass that emitted
	// it.
	pipeline.Spec
	// MaxSteps bounds each VM execution (0 = default 50M).
	MaxSteps int64
	// Input is the byte stream getchar() consumes, identical in every run.
	Input []byte
	// Seed tags reports for generated programs (0 for external inputs).
	Seed int64
	// CheckResidual enables the residual-replicable-jump check. It is
	// opt-in: the Figure-3 pipeline's anti-churn cutoffs (§5.2 conservatism)
	// legitimately leave replicable jumps behind on goto-heavy programs, so
	// this reports the conservatism gap rather than a soundness bug —
	// useful in offline campaigns, wrong as a CI failure.
	CheckResidual bool
	// PostOptimize, when non-nil, runs after the pipeline and before the
	// structural checks and execution of each cell — a fault-injection
	// hook for testing that the oracle actually catches miscompiles.
	PostOptimize func(m *machine.Machine, lv pipeline.Level, prog *cfg.Program)
}

func (o Options) machines() []*machine.Machine {
	if len(o.Machines) == 0 {
		return machine.All()
	}
	return o.Machines
}

func (o Options) levels() []pipeline.Level {
	if len(o.Levels) == 0 {
		return pipeline.AllLevels()
	}
	return o.Levels
}

func (o Options) maxSteps() int64 {
	if o.MaxSteps == 0 {
		return 50_000_000
	}
	return o.MaxSteps
}

// spec returns the compile spec with a fuzzing-friendly growth cap:
// goto-heavy generated programs can otherwise balloon to the stock
// 20000-RTL ceiling, where the downstream passes (liveness, register
// allocation) dominate a cell's wall time. The cap was 6000 when step 1
// was the all-pairs Floyd–Warshall matrix; the on-demand path oracle
// removed that bottleneck (see internal/replicate/oracle.go), so the
// ceiling now doubles to 12000 while a full grid check stays in the low
// seconds.
func (o Options) spec() pipeline.Spec {
	s := o.Spec
	if s.Replication.MaxFuncRTLs == 0 {
		s.Replication.MaxFuncRTLs = 12000
	}
	return s
}

// Check compiles src at every configured (machine, level) cell, executes
// each build in the VM, and compares every observable — output bytes, exit
// code, trap behaviour — against the unoptimized reference interpretation.
// It also asserts the structural invariants of the optimized code: the CFG
// validates, every flow graph stays reducible, the JUMPS build executes no
// more unconditional jumps than SIMPLE, the DUPS build executes no more
// conditional branches than JUMPS, and — opt-in via CheckResidual — a
// JUMPS build leaves no replicable unconditional jump behind.
//
// Inputs that do not compile, or whose reference interpretation already
// traps, yield a skipped verdict: for arbitrary fuzzer-mutated sources
// such programs are invalid or outside the defined language subset, so
// behavioural comparison would report false positives (an optimizer may
// legitimately change what wild code does). Generator-produced programs
// are well defined by construction and never skip.
func Check(src string, o Options) *Verdict {
	v := &Verdict{Seed: o.Seed}

	ref, err := mcc.Compile(src)
	if err != nil {
		v.Skipped, v.SkipReason = true, fmt.Sprintf("does not compile: %v", err)
		return v
	}
	refRun, err := vm.Run(ref, vm.Config{Input: o.Input, MaxSteps: o.maxSteps()})
	if err != nil {
		// Structural invariants still hold for trapping programs, but
		// behaviour is compared only against a completed reference.
		v.Skipped, v.SkipReason = true, fmt.Sprintf("reference run: %v", err)
	}

	type cellCounts struct {
		ok       bool
		jumps    int64 // direct unconditional jumps (Jmp, not IJmp)
		branches int64 // conditional branches (Br)
	}
	perMachine := map[string]map[pipeline.Level]cellCounts{}
	spec := o.spec()

	for _, m := range o.machines() {
		perMachine[m.Name] = map[pipeline.Level]cellCounts{}
		for _, lv := range o.levels() {
			v.Cells++
			prog, err := mcc.Compile(src)
			if err != nil {
				// Unreachable: the reference compile succeeded above.
				v.add(m, lv, VStructure, fmt.Sprintf("recompile: %v", err))
				continue
			}
			st := pipeline.Optimize(prog, pipeline.Config{Machine: m, Level: lv, Spec: spec})
			if o.PostOptimize != nil {
				o.PostOptimize(m, lv, prog)
			}

			// Structural and semantic invariants (post-pipeline,
			// pre-execution), all through the verifier so every kind of
			// corruption shares one diagnostic format. Verify-each
			// violations carry pass attribution and supersede the
			// whole-program check: the corruption they pinpoint is the
			// same one the final state would show.
			vs := st.Verify
			if len(vs) == 0 {
				vs = verify.Program(prog, verify.Options{
					DelaySlots:   m.DelaySlots,
					PostRegalloc: true,
				})
			}
			if len(vs) > 0 {
				for _, vio := range vs {
					v.add(m, lv, kindForRule(vio.Rule), vio.String())
				}
				continue
			}
			if lv == pipeline.Jumps && o.CheckResidual {
				if det := residualReplicableJump(prog, spec.Replication); det != "" {
					v.add(m, lv, VResidual, det)
				}
			}

			// Behaviour.
			run, err := vm.Run(prog, vm.Config{Input: o.Input, MaxSteps: o.maxSteps()})
			if err != nil {
				if !v.Skipped {
					v.add(m, lv, VTrap, fmt.Sprintf("%s: %v", TrapKind(err), err))
				}
				continue
			}
			perMachine[m.Name][lv] = cellCounts{
				ok: true,
				// Count direct jumps only: the x86 back end may lower a
				// compare chain to an indirect table dispatch at one level
				// and not another, and an IJmp executes once where the
				// chain executed zero Jmps — comparing raw UncondJumps
				// across levels would flag that legitimate trade as a
				// violation. Replication's Table-4 claim is about the
				// direct jumps it eliminates.
				jumps:    run.Counts.UncondJumps - run.Counts.IndirectJumps,
				branches: run.Counts.CondBranches,
			}
			if v.Skipped {
				// Reference trapped but the optimized build did not: for
				// budget traps this is legitimate (the optimizer removed
				// work); nothing sound to compare.
				continue
			}
			if string(run.Output) != string(refRun.Output) {
				v.add(m, lv, VOutput,
					fmt.Sprintf("got %q, want %q", clip(run.Output), clip(refRun.Output)))
			}
			if run.ExitCode != refRun.ExitCode {
				v.add(m, lv, VExit,
					fmt.Sprintf("got %d, want %d", run.ExitCode, refRun.ExitCode))
			}
		}
	}

	// EASE dynamic-count invariants: replication must never make a program
	// execute more direct unconditional jumps than the SIMPLE build on the
	// same machine (the paper's Table-4 claim, which rollback preserves),
	// and conditional elimination must never make it execute more
	// conditional branches than the JUMPS build (≤, not <: a fold only
	// fires where the analysis decides an edge, and many programs offer
	// none).
	for _, m := range o.machines() {
		cells := perMachine[m.Name]
		s, j := cells[pipeline.Simple], cells[pipeline.Jumps]
		if s.ok && j.ok && j.jumps > s.jumps {
			v.add(m, pipeline.Jumps, VDynamic,
				fmt.Sprintf("JUMPS executed %d direct unconditional jumps, SIMPLE only %d", j.jumps, s.jumps))
		}
		d := cells[pipeline.Dups]
		if j.ok && d.ok && d.branches > j.branches {
			v.add(m, pipeline.Dups, VDynamicCond,
				fmt.Sprintf("DUPS executed %d conditional branches, JUMPS only %d", d.branches, j.branches))
		}
	}
	return v
}

// kindForRule maps a verifier rule to the oracle's violation taxonomy:
// the structure, reducibility and translation-validation rules keep their
// dedicated kinds, every other rule is a semantic violation.
func kindForRule(r verify.Rule) Kind {
	switch r {
	case verify.RuleStructure:
		return VStructure
	case verify.RuleIrreducible:
		return VIrreducible
	case verify.RuleTranslation:
		return VTranslation
	}
	return VSemantic
}

func (v *Verdict) add(m *machine.Machine, lv pipeline.Level, kind Kind, detail string) {
	v.Violations = append(v.Violations, Violation{
		Machine: m.Name, Level: lv.String(), Kind: kind, Detail: detail,
	})
}

// residualReplicableJump probes the paper's fixed-point property: after a
// JUMPS pipeline, re-running the replication algorithm on a clone of each
// function must not lower its static unconditional-jump count. Functions
// near a growth cap are exempt — the pipeline legitimately stops there.
// Returns a one-line detail for the first offending function, or "".
func residualReplicableJump(prog *cfg.Program, opts replicate.Options) string {
	opts.Tracer = nil
	for _, f := range prog.Funcs {
		if capped(f, opts) {
			continue
		}
		clone := f.Clone()
		before := replicate.CountJumps(clone)
		if before == 0 {
			continue
		}
		replicate.JUMPS(clone, opts)
		if after := replicate.CountJumps(clone); after < before {
			return fmt.Sprintf("function %s: %d unconditional jumps, replication would leave %d",
				f.Name, before, after)
		}
	}
	return ""
}

// capped reports whether f is close enough to a replication growth cap
// that leftover jumps are expected rather than a bug. opts comes from
// Options.replication, so its MaxFuncRTLs is already resolved.
func capped(f *cfg.Func, opts replicate.Options) bool {
	// Within 25% of the RTL budget the pipeline may stop replicating.
	return f.NumRTLs()*4 >= opts.MaxFuncRTLs*3
}

func clip(b []byte) string {
	const max = 64
	if len(b) > max {
		return string(b[:max]) + "…"
	}
	return string(b)
}

// TrapKind classifies a VM error for reports: "fault" (wild memory
// access), "budget" (step limit), or "error" (other runtime errors).
func TrapKind(err error) string {
	switch {
	case errors.Is(err, vm.ErrFault):
		return "fault"
	case errors.Is(err, vm.ErrBudget):
		return "budget"
	default:
		return "error"
	}
}
