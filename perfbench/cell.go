package main

import (
	"bytes"
	"fmt"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/encode"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/pipeline"
	"repro/internal/tv"
	"repro/internal/verify"
	"repro/internal/vm"
)

// counts are the exact count metrics of a pass: executed instructions,
// unconditional jumps and conditional branches (Tables 4–5), encoded code
// bytes (Table 5) and instruction-cache misses over the paper's eight
// cache configurations (Table 6).
type counts struct {
	Insts, Jumps, Branches, CodeBytes, ICacheMisses int64
}

func (c *counts) addRun(d vm.Counts) {
	c.Insts += d.Exec
	c.Jumps += d.UncondJumps
	c.Branches += d.CondBranches
}

func (c *counts) add(o counts) {
	c.Insts += o.Insts
	c.Jumps += o.Jumps
	c.Branches += o.Branches
	c.CodeBytes += o.CodeBytes
	c.ICacheMisses += o.ICacheMisses
}

func bankMisses(stats []cache.Stats) int64 {
	var n int64
	for _, s := range stats {
		n += s.Misses
	}
	return n
}

// cellSpec is one compile (and optionally run) composed from the layers'
// public calls, as the traced runs replay it.
type cellSpec struct {
	src   string
	input []byte
	m     *machine.Machine
	lv    pipeline.Level
	// jobs is pipeline.Config.Jobs (0 = GOMAXPROCS, as ease and mccd run).
	jobs int
	// tv validates every certificate the engine emits with tv.Validate,
	// from the benchmark's own OnCertificate hook (the pipeline's TV stays
	// off): the same work pipeline.Config.TV does.
	tv bool
	// listing emits the assembly listing, as every mccd /compile does.
	listing bool
	// run executes the program; caches also feeds its fetch stream to the
	// Table-6 bank.
	run, caches bool
	// noLayout skips the encoder (the difftest oracle never lays code out).
	noLayout bool
	// verify runs the post-pipeline IR verifier, as the oracle does.
	verify bool
	// replay marks a replay of work the service did: the pipeline's own
	// figures (its span, pass spans, pipeline.* counts but allocations,
	// replicate.*) come from the service's job trace and reply, so the
	// replay runs the pipeline only for the layers after it.
	replay bool
	// maxSteps bounds the run (0 = the VM default) and maxFuncRTLs the
	// replication growth (0 = the engine default).
	maxSteps    int64
	maxFuncRTLs int
}

// cellResult is what a traced cell produced.
type cellResult struct {
	// prog is the optimized program.
	prog     *cfg.Program
	counts   counts
	output   []byte
	exitCode int64
	// dyn are the run's raw VM counters (zero unless run).
	dyn vm.Counts
	// violations are the verifier's findings (verify only); a cell with
	// findings is not run.
	violations []verify.Violation
}

// fetchLog records an instruction-fetch stream (address<<8 | size) for
// replay into the cache bank; its buffer is reused across cells.
type fetchLog struct{ buf []uint64 }

func (l *fetchLog) fetch(addr, size int64) { l.buf = append(l.buf, uint64(addr)<<8|uint64(size)) }

// tracedCell compiles (and runs) one cell with a span at every layer
// boundary under parent, and the layer counts taken at the same points.
func tracedCell(t *tracer, op int64, parent int, c cellSpec, log *fetchLog) (*cellResult, error) {
	var res cellResult
	var prog *cfg.Program
	var err error
	t.timed("mcc", parent, op, func() { prog, err = mcc.Compile(c.src) })
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	rtlsIn := numRTLs(prog)
	t.add("mcc.calls", 1)
	t.add("mcc.rtls_out", float64(rtlsIn))

	conf := pipeline.Config{Machine: c.m, Level: c.lv, Jobs: c.jobs}
	conf.Replication.MaxFuncRTLs = c.maxFuncRTLs
	var pt *passTracer
	var pid int
	if c.replay {
		pid = t.open("replay.pipeline", parent, op)
	} else {
		pid = t.open("pipeline", parent, op)
		pt = &passTracer{t: t, parent: pid, op: op}
		conf.Tracer = pt
	}
	if c.tv {
		conf.Jobs = 1 // pt.pending is filled from the hook, so keep it on one goroutine
		conf.Replication.OnCertificate = func(f *cfg.Func, cert *tv.Certificate) {
			var vs int
			id := t.timed("tv", pid, op, func() { vs = len(tv.Validate(f, cert)) })
			if pt != nil {
				pt.pending = append(pt.pending, id)
			}
			t.add("tv.certs", 1)
			t.add("tv.rejections", float64(vs))
		}
	}
	allocs := readRuntime().mallocs
	st := pipeline.Optimize(prog, conf)
	t.add("pipeline.allocs", readRuntime().mallocs-allocs)
	t.close(pid)
	res.prog = prog
	if !c.replay {
		addPipelineStats(t, st, rtlsIn, numRTLs(prog))
	}

	if c.verify {
		var vs []verify.Violation
		t.timed("verify", parent, op, func() {
			vs = verify.Program(prog, verify.Options{DelaySlots: c.m.DelaySlots, PostRegalloc: true})
		})
		t.add("verify.calls", 1)
		res.violations = vs
	}

	if c.listing {
		var buf bytes.Buffer
		t.timed("asm", parent, op, func() { err = asm.Emit(&buf, prog, c.m) })
		if err != nil {
			return nil, fmt.Errorf("emit: %w", err)
		}
		t.add("asm.bytes", float64(buf.Len()))
	}

	var layout *vm.Layout
	if !c.noLayout {
		t.timed("encode", parent, op, func() { layout = vm.NewLayout(prog, c.m) })
		res.counts.CodeBytes = layout.CodeBytes
		// The fixpoint statistics are not on vm.Layout; a second, untimed
		// layout reads them.
		for _, ef := range encode.LayoutProgram(prog, c.m).Funcs {
			t.add("encode.passes", float64(ef.Passes))
			t.add("encode.promotions", float64(ef.Promotions))
		}
	}
	if !c.run || len(res.violations) > 0 {
		return &res, nil
	}

	conf2 := vm.Config{Input: c.input, MaxSteps: c.maxSteps}
	if c.caches {
		log.buf = log.buf[:0]
		conf2.Layout, conf2.OnFetch = layout, log.fetch
	}
	var run *vm.Result
	t.timed("vm", parent, op, func() { run, err = vm.Run(prog, conf2) })
	t.add("vm.calls", 1)
	if err != nil {
		return &res, fmt.Errorf("run: %w", err)
	}
	t.add("vm.insts", float64(run.Counts.Exec))
	res.dyn = run.Counts
	res.counts.addRun(run.Counts)
	res.output, res.exitCode = run.Output, run.ExitCode
	if c.caches {
		bank := cache.NewPaperBank()
		t.timed("cache", parent, op, func() {
			for _, f := range log.buf {
				bank.Fetch(int64(f>>8), int64(f&0xff))
			}
		})
		t.add("cache.fetches", float64(len(log.buf)))
		res.counts.ICacheMisses = bankMisses(bank.Stats())
	}
	return &res, nil
}

// addPipelineStats counts one pipeline.Optimize call: its RTLs in and
// out and its statistics.
func addPipelineStats(t *tracer, st pipeline.Stats, rtlsIn, rtlsOut int) {
	t.add("pipeline.calls", 1)
	t.add("pipeline.rtls_in", float64(rtlsIn))
	t.add("pipeline.rtls_out", float64(rtlsOut))
	t.add("pipeline.iterations", float64(st.Iterations))
	r := st.Replication
	t.add("replicate.replications", float64(r.Replications))
	t.add("replicate.jumps_deleted", float64(r.JumpsDeleted))
	t.add("replicate.rollbacks", float64(r.Rollbacks))
	t.add("replicate.rtls_copied", float64(r.RTLsCopied))
	t.add("replicate.branches_folded", float64(r.BranchesFolded))
}

func numRTLs(p *cfg.Program) int {
	n := 0
	for _, f := range p.Funcs {
		n += f.NumRTLs()
	}
	return n
}
