// Package pipeline drives the optimization phases in the order of the
// paper's Figure 3, parameterized by the optimization level under study:
//
//	SIMPLE — the standard optimizations only,
//	LOOPS  — plus conventional loop-condition replication,
//	JUMPS  — plus generalized code replication,
//	DUPS   — plus conditional elimination by code duplication.
package pipeline

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cfg"
	"repro/internal/encode"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/replicate"
	"repro/internal/rtl"
	"repro/internal/tv"
	"repro/internal/verify"
)

// Level is the optimization level of the paper's experiments.
type Level uint8

// Optimization levels.
const (
	Simple Level = iota
	Loops
	Jumps
	// Dups extends Jumps with conditional elimination by code duplication:
	// conditional branches whose outcome is decided on an incoming path are
	// removed by duplicating the test block on that path with the branch
	// folded to the decided transfer.
	Dups
)

// String returns the level's canonical upper-case spelling (e.g. "JUMPS").
func (l Level) String() string {
	switch l {
	case Simple:
		return "SIMPLE"
	case Loops:
		return "LOOPS"
	case Jumps:
		return "JUMPS"
	case Dups:
		return "DUPS"
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// AllLevels lists the four optimization levels in ascending order (the
// paper's three plus DUPS); tools that sweep every level (tables, the
// difftest oracle) range over this instead of hard-coding the enum.
func AllLevels() []Level { return []Level{Simple, Loops, Jumps, Dups} }

// ParseLevel converts a string (any case) to a Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "simple":
		return Simple, nil
	case "loops":
		return Loops, nil
	case "jumps":
		return Jumps, nil
	case "dups":
		return Dups, nil
	}
	return Simple, fmt.Errorf("pipeline: unknown level %q (want simple, loops, jumps or dups)", s)
}

// Spec is the settable part of a compile beyond its machine and level:
// the replication options and the two checking modes. Config,
// ease.Request, bench.GridConfig and difftest.Options embed it, so a
// caller hands it on as one value; mccd resolves its wire form into one.
type Spec struct {
	// Replication tunes the replication passes (LOOPS, JUMPS and DUPS;
	// ignored at SIMPLE). Its Tracer is replaced by Config.Tracer.
	Replication replicate.Options
	// VerifyEach runs the semantic IR verifier (internal/verify) after
	// every pass and attributes the first violation to the pass that
	// introduced it: violations land in Stats.Verify and are emitted as
	// obs.EvVerify trace events. It also fingerprints the function around
	// every pass and reports a pass that claims a change on identical code
	// (verify.RulePhantomChange). After a function's first violating pass
	// its remaining passes go unchecked — the damage is already attributed,
	// and a corrupt function would drown the report in downstream noise.
	// This is a debugging mode: every check recomputes edges, liveness and
	// dominators.
	VerifyEach bool
	// TV runs the translation validator (internal/tv) over every
	// certificate the replication engine emits: each applied duplication
	// is checked by cut-point bisimulation in the state it left behind,
	// with fold evidence re-derived rather than trusted. Rejections carry
	// verify.RuleTranslation and flow through the same attribution
	// machinery as verify-each findings — pass/stage/iter stamped,
	// recorded in Stats.Verify, emitted as obs.EvVerify events — and a
	// function's first rejection stops further validation for it. TV and
	// VerifyEach are independent; either can be enabled alone. Unlike
	// VerifyEach, TV's cost is proportional to the duplications actually
	// applied, not to the pass count.
	TV bool
}

// Config selects the machine, level and Spec of one compile.
type Config struct {
	Machine *machine.Machine
	Level   Level
	Spec
	// Tracer, when non-nil, receives telemetry: one obs.EvPass span per
	// optimization pass (wall time, iteration, RTL/block deltas), one
	// obs.EvPhase span per function, and the replication decision log.
	// Nil disables tracing; the instrumented paths then cost a single nil
	// check.
	Tracer obs.Tracer
	// Jobs bounds how many functions Optimize works on concurrently inside
	// one translation unit: 0 means GOMAXPROCS, 1 forces the serial path.
	// The output is identical for every value — functions share no mutable
	// state, per-function trace events are buffered and replayed in
	// function order (the same func-major order the serial path emits),
	// and statistics merge in function order.
	Jobs int

	// corruptAfter, when non-nil, mutates the function after the named
	// pass runs and before its verify-each check (but after the phantom-
	// change fingerprint) — the fault-injection hook behind this package's
	// pass-attribution tests.
	corruptAfter func(pass string, f *cfg.Func)
	// corruptCert, when non-nil, mutates every certificate after the
	// engine emits it and before the validator sees it — the
	// fault-injection hook behind this package's TV rejection tests.
	corruptCert func(f *cfg.Func, cert *tv.Certificate)
}

// maxIterations caps the do-while loop of Figure 3.
const maxIterations = 30

func (c Config) jobs() int {
	if c.Jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Jobs
}

// Stats summarizes what the pipeline did.
type Stats struct {
	// StaticInsts is the final static instruction count.
	StaticInsts int
	// StaticJumps / StaticBranches / StaticNops count final unconditional
	// jumps (incl. indirect), conditional branches and no-ops.
	StaticJumps    int
	StaticIndirect int
	StaticBranches int
	StaticNops     int
	// SlotsFilled / SlotsNops report delay-slot filling (SPARC only).
	SlotsFilled int
	SlotsNops   int
	// Iterations is the number of Figure-3 loop iterations used.
	Iterations int
	// Replication aggregates the replication activity over every function
	// and iteration: jumps replaced, trivial jump-to-next deletions,
	// reducibility rollbacks, and RTLs copied (Table-5 code growth,
	// explained per-jump by the decision log).
	Replication replicate.Result
	// Verify holds the semantic-verifier violations found by verify-each
	// mode and the certificate rejections found by translation validation
	// (empty unless Config.VerifyEach or Config.TV; a healthy pipeline
	// reports none). Each violation names the pass that introduced it.
	Verify []verify.Violation `json:"verify,omitempty"`
}

// Optimize runs the full Figure-3 pipeline over every function of the
// program and returns static statistics of the final code. Functions are
// independent, so with Config.Jobs != 1 they are optimized concurrently;
// the result — code, statistics, trace-event order, violation order — is
// byte-identical to the serial run.
func Optimize(p *cfg.Program, c Config) Stats {
	var st Stats
	if jobs := c.jobs(); jobs > 1 && len(p.Funcs) > 1 {
		optimizeParallel(p, c, jobs, &st)
	} else {
		for _, f := range p.Funcs {
			mergeFuncStats(&st, optimizeFunc(f, c))
		}
	}
	count(p, &st)
	return st
}

// mergeFuncStats folds one function's statistics into the unit's. Called
// in function order on both the serial and the parallel path.
func mergeFuncStats(st *Stats, st0 Stats) {
	st.SlotsFilled += st0.SlotsFilled
	st.SlotsNops += st0.SlotsNops
	if st0.Iterations > st.Iterations {
		st.Iterations = st0.Iterations
	}
	st.Replication.Merge(st0.Replication)
	st.Verify = append(st.Verify, st0.Verify...)
}

// bufTracer accumulates one function's trace events so the parallel driver
// can replay them to the real tracer in function order — reproducing the
// func-major event order of the serial path.
type bufTracer struct{ events []*obs.Event }

func (t *bufTracer) Emit(ev *obs.Event) { t.events = append(t.events, ev) }

// optimizeParallel fans the functions out over a bounded worker pool.
// Determinism: workers share nothing (each function carries its own
// scratch arena, and the concurrency tests audit the package-level state);
// anything order-sensitive — tracer events and stats merging — is buffered
// per function and delivered in function order after the pool drains.
func optimizeParallel(p *cfg.Program, c Config, jobs int, st *Stats) {
	n := len(p.Funcs)
	if jobs > n {
		jobs = n
	}
	results := make([]Stats, n)
	// replicatePass hands the (buffered) pipeline tracer to replication, so
	// the decision log interleaves with the pass spans exactly as on the
	// serial path.
	var bufs []bufTracer
	if c.Tracer != nil {
		bufs = make([]bufTracer, n)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				cf := c
				if bufs != nil {
					cf.Tracer = &bufs[i]
				}
				results[i] = optimizeFunc(p.Funcs[i], cf)
			}
		}()
	}
	wg.Wait()
	for i := range results {
		if bufs != nil {
			for _, e := range bufs[i].events {
				c.Tracer.Emit(e)
			}
		}
		mergeFuncStats(st, results[i])
	}
}

// replicatePass runs the configured replication algorithm.
func replicatePass(f *cfg.Func, c Config) replicate.Result {
	opts := c.Replication
	opts.Tracer = c.Tracer
	switch c.Level {
	case Loops:
		return replicate.LOOPS(f, opts)
	case Jumps:
		return replicate.JUMPS(f, opts)
	case Dups:
		return replicate.DUPS(f, opts)
	}
	return replicate.Result{}
}

// passRunner instruments the Figure-3 passes of one function: when a
// tracer is configured, every pass is wrapped in an obs.EvPass span
// carrying the pipeline stage, iteration number, wall time, and RTL/block
// deltas. With tracing disabled (tr == nil) each pass costs one nil check.
type passRunner struct {
	tr    obs.Tracer
	f     *cfg.Func
	stage string
	iter  int
	// ver holds the verify-each state (nil unless Config.VerifyEach).
	ver *verifier
}

// verifier is the per-function verify-each state: the rule options evolve
// as the pipeline crosses its phase boundaries (regalloc forbids virtual
// registers, delay-slot filling changes the legal block shape), and
// checking stops at the first violating pass so the attribution stays
// sharp.
type verifier struct {
	cfg *Config
	// slotsAfterFill: the machine has delay slots, so the delay-slots pass
	// switches the verifier to the filled shape.
	slotsAfterFill bool
	// checkEach: run the full semantic rule set after every pass
	// (Config.VerifyEach). TV-only mode still routes its certificate
	// rejections through the verifier for attribution but skips the
	// per-pass rule sweep.
	checkEach bool
	opts      verify.Options
	// tvPending buffers translation-validation rejections found since the
	// last pass boundary; verify() attributes them to the pass that just
	// ran (only the replicate pass emits certificates) and flushes.
	tvPending  []verify.Violation
	violations []verify.Violation
	stopped    bool
}

// checking reports whether the next pass boundary runs the verify-each
// checks.
func (v *verifier) checking() bool {
	return v != nil && v.checkEach && !v.stopped
}

func (p *passRunner) run(name string, pass func() bool) bool {
	if p.tr == nil && p.ver == nil {
		return pass()
	}
	var before uint64
	if p.ver.checking() {
		before = fingerprint(p.f)
	}
	if p.tr == nil {
		changed := pass()
		p.verify(name, changed, before)
		return changed
	}
	rtlsBefore, blocksBefore := p.f.NumRTLs(), len(p.f.Blocks)
	start := time.Now() // det:allow nodeterminism — pass-timing telemetry only
	changed := pass()
	p.tr.Emit(&obs.Event{
		Type: obs.EvPass, Name: name, Func: p.f.Name,
		Stage: p.stage, Iter: p.iter, Changed: changed,
		RTLsBefore: rtlsBefore, RTLsAfter: p.f.NumRTLs(),
		BlocksBefore: blocksBefore, BlocksAfter: len(p.f.Blocks),
		// det:allow nodeterminism — trace-event duration, not compiler output.
		TimeNS: start.UnixNano(), DurNS: int64(time.Since(start)),
	})
	p.verify(name, changed, before)
	return changed
}

// verify runs the semantic verifier after one pass (verify-each mode) and
// attributes any violations to it. changed is what the pass reported and
// before the function's fingerprint ahead of it.
func (p *passRunner) verify(name string, changed bool, before uint64) {
	v := p.ver
	if v == nil {
		return
	}
	// Phase boundaries change which rules apply from here on.
	switch name {
	case "regalloc":
		v.opts.PostRegalloc = true
	case "delay-slots":
		v.opts.DelaySlots = v.slotsAfterFill
	}
	var vs []verify.Violation
	if changed && v.checking() && fingerprint(p.f) == before {
		vs = append(vs, verify.Violation{
			Rule: verify.RulePhantomChange, Func: p.f.Name,
			Detail: "pass reported a change but left the code identical",
		})
	}
	if v.cfg.corruptAfter != nil {
		v.cfg.corruptAfter(name, p.f)
	}
	if len(v.tvPending) > 0 {
		tvs := v.tvPending
		v.tvPending = nil
		p.report(name, tvs)
	}
	if !v.checking() {
		return
	}
	p.report(name, append(vs, verify.Func(p.f, v.opts)...))
}

// fingerprint hashes the function's code (FNV-1a, one round per field
// rather than per byte, over each block's label and every field of its
// instructions) so that verify-each can tell whether a pass changed
// anything.
func fingerprint(f *cfg.Func) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x int64) {
		h ^= uint64(x)
		h *= 1099511628211
	}
	str := func(s string) {
		mix(int64(len(s)))
		for i := 0; i < len(s); i++ {
			mix(int64(s[i]))
		}
	}
	operand := func(o *rtl.Operand) {
		mix(int64(o.Kind))
		mix(int64(o.Reg))
		mix(o.Val)
		str(o.Sym)
		mix(int64(o.Index))
		mix(o.Scale)
	}
	for _, b := range f.Blocks {
		mix(int64(b.Label))
		mix(int64(len(b.Insts)))
		for ii := range b.Insts {
			in := &b.Insts[ii]
			mix(int64(in.Kind))
			mix(int64(in.BOp))
			mix(int64(in.UOp))
			mix(int64(in.BrRel))
			operand(&in.Dst)
			operand(&in.Src)
			operand(&in.Src2)
			mix(int64(in.Target))
			str(in.Sym)
			mix(int64(len(in.Table)))
			for _, l := range in.Table {
				mix(int64(l))
			}
			mix(in.Lo)
			mix(int64(in.ArgIdx))
			if in.Annul {
				mix(1)
			} else {
				mix(0)
			}
		}
	}
	return h
}

// report attributes freshly-found violations to the named pass, records
// them, and stops further checks for this function.
func (p *passRunner) report(pass string, vs []verify.Violation) {
	if len(vs) == 0 {
		return
	}
	v := p.ver
	v.stopped = true
	for i := range vs {
		vs[i].Pass, vs[i].Stage, vs[i].Iter = pass, p.stage, p.iter
		if p.tr != nil {
			p.tr.Emit(&obs.Event{
				Type: obs.EvVerify, Name: pass, Func: vs[i].Func,
				Block: vs[i].Block, Rule: string(vs[i].Rule),
				Detail: vs[i].Detail, Stage: p.stage, Iter: p.iter,
			})
		}
	}
	v.violations = append(v.violations, vs...)
}

func optimizeFunc(f *cfg.Func, c Config) Stats {
	m := c.Machine
	var st Stats
	funcStart := time.Now() // det:allow nodeterminism — phase-timing telemetry only
	pr := &passRunner{tr: c.Tracer, f: f, stage: "prologue"}
	if c.VerifyEach || c.TV {
		pr.ver = &verifier{
			cfg:            &c,
			slotsAfterFill: m.DelaySlots,
			checkEach:      c.VerifyEach,
			// Mid-pipeline, stranded-but-unreachable blocks are legitimate:
			// replication and branch chaining leave them for the next
			// dead-code pass. The final post-pipeline check re-enables the
			// rule.
			opts: verify.Options{SkipUnreachable: true},
		}
	}
	if c.TV {
		// Validate each certificate synchronously, in exactly the state
		// the engine left behind (later edits may rearrange the layout the
		// certificate describes). Rejections buffer in the verifier and
		// are attributed at the pass boundary.
		userHook := c.Replication.OnCertificate
		ver := pr.ver
		c.Replication.OnCertificate = func(fn *cfg.Func, cert *tv.Certificate) {
			if userHook != nil {
				userHook(fn, cert)
			}
			if c.corruptCert != nil {
				c.corruptCert(fn, cert)
			}
			if ver.stopped {
				return
			}
			ver.tvPending = append(ver.tvPending, tv.Validate(fn, cert)...)
		}
	}
	replicateHere := func() bool {
		r := replicatePass(f, c)
		st.Replication.Merge(r)
		return r.Changed
	}

	// Shape the naive front-end RTLs for the target machine.
	pr.run("legalize", func() bool { machine.Legalize(f, m); return false })

	// Figure 3, prologue: branch chaining; dead code elimination; reorder
	// basic blocks to minimize jumps; code replication; dead code
	// elimination.
	pr.run("branch-chaining", func() bool { return opt.BranchChaining(f) })
	pr.run("dead-code", func() bool { return opt.DeadCodeElimination(f) })
	pr.run("reorder-blocks", func() bool { return cfg.ReorderBlocks(f) })
	pr.run("replicate", replicateHere)
	pr.run("dead-code", func() bool { return opt.DeadCodeElimination(f) })

	// Register assignment: promote scalars to registers.
	pr.run("promote-locals", func() bool { return opt.PromoteLocals(f) })

	// Figure 3, main do-while loop. Replication only counts as progress
	// while it still lowers the function's unconditional-jump count —
	// interactions are otherwise "treated conservatively to avoid the
	// potential of replication ad infinitum" (§5.2).
	iters := 0
	replicating := true
	pr.stage = "loop"
	for iters < maxIterations {
		iters++
		pr.iter = iters
		changed := false
		changed = pr.run("cse", func() bool { return opt.CommonSubexpressions(f, m) }) || changed
		changed = pr.run("dead-variables", func() bool { return opt.DeadVariableElimination(f) }) || changed
		changed = pr.run("code-motion", func() bool { return opt.CodeMotion(f) }) || changed
		changed = pr.run("strength-reduction", func() bool { return opt.StrengthReduction(f) }) || changed
		changed = pr.run("fold-constants", func() bool { return opt.FoldConstants(f) }) || changed
		changed = pr.run("instruction-selection", func() bool { return opt.InstructionSelection(f, m) }) || changed
		changed = pr.run("branch-chaining", func() bool { return opt.BranchChaining(f) }) || changed
		changed = pr.run("fold-branches", func() bool { return opt.FoldBranches(f) }) || changed
		changed = pr.run("delete-jumps-to-next", func() bool { return cfg.DeleteJumpsToNext(f) }) || changed
		if replicating {
			// Every replicating level, DUPS included, measures progress by
			// the static jump count, so DUPS's jump-replication phase walks
			// the trajectory JUMPS would. A fold's progress is dynamic,
			// invisible to any static count, so it is credited from the
			// BranchesFolded delta instead.
			before := replicate.CountJumps(f)
			foldsBefore := st.Replication.BranchesFolded
			repChanged := pr.run("replicate", replicateHere)
			pr.run("dead-code", func() bool { return opt.DeadCodeElimination(f) })
			after := replicate.CountJumps(f)
			if after < before || st.Replication.BranchesFolded > foldsBefore {
				changed = true
			} else if repChanged {
				// Replication churned without net progress: stop invoking
				// it for this function.
				replicating = false
			}
		}
		changed = pr.run("dead-code", func() bool { return opt.DeadCodeElimination(f) }) || changed
		changed = pr.run("merge-blocks", func() bool { return opt.MergeBlocks(f) }) || changed
		if !changed {
			break
		}
	}
	st.Iterations = iters

	pr.stage, pr.iter = "finish", 0

	// Safety: anything an optimization left in a machine-illegal shape is
	// re-expanded (idempotent for already-legal code).
	pr.run("legalize", func() bool { machine.Legalize(f, m); return false })

	// Machines with displacement-dependent encodings (the x86): rewrite
	// long equality compare chains into jump tables before register
	// allocation, while the selector is still a virtual register.
	if m.Encoder != nil {
		pr.run("lower-jump-tables", func() bool { return encode.LowerJumpTables(f, m) })
	}

	// Register allocation by colouring, then final cleanups.
	pr.run("regalloc", func() bool { opt.AllocateRegisters(f, m); return false })
	pr.run("dead-variables", func() bool { return opt.DeadVariableElimination(f) })
	pr.run("branch-chaining", func() bool { return opt.BranchChaining(f) })
	pr.run("delete-jumps-to-next", func() bool { return cfg.DeleteJumpsToNext(f) })
	pr.run("dead-code", func() bool { return opt.DeadCodeElimination(f) })

	// Filling of delay slots for RISCs: the final pass.
	pr.run("delay-slots", func() bool {
		st.SlotsFilled, st.SlotsNops = opt.FillDelaySlots(f, m)
		return st.SlotsFilled+st.SlotsNops > 0
	})

	if pr.ver != nil {
		// Whole-function epilogue check: the per-pass checks tolerate
		// unreachable blocks (the next dead-code pass reclaims them), but
		// nothing runs after this point, so the final code must not carry
		// any. TV-only mode has no epilogue obligation — certificates were
		// all discharged at pass boundaries.
		if pr.ver.checkEach && !pr.ver.stopped {
			pr.ver.opts.SkipUnreachable = false
			pr.report("post-pipeline", verify.Func(f, pr.ver.opts))
		}
		st.Verify = pr.ver.violations
	}

	if c.Tracer != nil {
		c.Tracer.Emit(&obs.Event{
			Type: obs.EvPhase, Name: "optimize-func", Func: f.Name,
			Iter: iters, RTLsAfter: f.NumRTLs(), BlocksAfter: len(f.Blocks),
			// det:allow nodeterminism — trace-event duration, not compiler output.
			TimeNS: funcStart.UnixNano(), DurNS: int64(time.Since(funcStart)),
		})
	}
	// Nothing reads the analysis arena after the pipeline.
	f.DropScratch()
	return st
}

// count fills the static instruction statistics.
func count(p *cfg.Program, st *Stats) {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for ii := range b.Insts {
				st.StaticInsts++
				switch b.Insts[ii].Kind {
				case rtl.Jmp:
					st.StaticJumps++
				case rtl.IJmp:
					st.StaticJumps++
					st.StaticIndirect++
				case rtl.Br:
					st.StaticBranches++
				case rtl.Nop:
					st.StaticNops++
				}
			}
		}
	}
}
