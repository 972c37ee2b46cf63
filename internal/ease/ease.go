// Package ease is the measurement environment of the reproduction, playing
// the role of the paper's EASE (Environment for Architectural Study and
// Experimentation): it compiles a program with a chosen machine and
// optimization level, executes it, and collects the static, dynamic and
// cache measurements behind Tables 4–6.
package ease

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/cfg"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/vm"
)

// Request describes one measurement cell: program × machine × level.
type Request struct {
	Name    string
	Source  string
	Input   []byte
	Machine *machine.Machine
	Level   pipeline.Level
	// Spec tunes replication (zero value = paper defaults) and turns on
	// verify-each and TV. Their findings do not abort: they land in
	// Run.Static.Verify for the caller — cmd/ease turns them into a
	// non-zero exit, mccd into a structured response diagnostic.
	pipeline.Spec
	// SimulateCaches enables the Table-6 cache bank.
	SimulateCaches bool
	// CacheSizes overrides the paper's {1,2,4,8} KB cache sizes (bytes);
	// used for the scaled small-cache study.
	CacheSizes []int64
	// OnFetch, when set, receives every instruction fetch (address, size)
	// — e.g. to dump a trace for offline cache studies. Composes with
	// SimulateCaches.
	OnFetch func(addr, size int64)
	// Tracer, when non-nil, receives the whole measurement's telemetry:
	// phase spans (compile, optimize, layout, run), per-pass spans, the
	// replication decision log, and the VM execution profile (per-block
	// counts plus a hot-path summary). Nil disables tracing.
	Tracer obs.Tracer
}

// Run is the outcome of one measurement.
type Run struct {
	Static    pipeline.Stats
	Dynamic   vm.Counts
	CodeBytes int64
	Output    []byte
	ExitCode  int64
	// Caches holds the Table-6 bank statistics (nil unless requested):
	// {1,2,4,8} KB × context switches {on, off} in cache.NewPaperBank
	// order.
	Caches []cache.Stats
	// Elapsed is the wall time of the whole measurement (compile through
	// run), for progress reporting.
	Elapsed time.Duration
	// InputRTLs is the program size entering the optimizer (RTL
	// instructions over all functions) and OptimizeElapsed the wall time
	// of the optimize phase alone: together they give the compile
	// throughput (RTLs/sec) that mccd exports as a histogram and
	// BENCH_baseline.json records per pipeline level.
	InputRTLs       int
	OptimizeElapsed time.Duration
}

// StaticJumpFraction is the static fraction of instructions that are
// unconditional jumps (Table 4, "static").
func (r *Run) StaticJumpFraction() float64 {
	if r.Static.StaticInsts == 0 {
		return 0
	}
	return float64(r.Static.StaticJumps) / float64(r.Static.StaticInsts)
}

// DynamicJumpFraction is the executed fraction of instructions that are
// unconditional jumps (Table 4, "dynamic").
func (r *Run) DynamicJumpFraction() float64 {
	if r.Dynamic.Exec == 0 {
		return 0
	}
	return float64(r.Dynamic.UncondJumps) / float64(r.Dynamic.Exec)
}

// InstsBetweenBranches is the dynamic average number of instructions
// executed per control transfer (§5.2's instructions-between-branches).
func (r *Run) InstsBetweenBranches() float64 {
	if r.Dynamic.Transfers == 0 {
		return float64(r.Dynamic.Exec)
	}
	return float64(r.Dynamic.Exec) / float64(r.Dynamic.Transfers)
}

// phaseSpan emits one obs.EvPhase span when tracing is enabled.
func phaseSpan(tr obs.Tracer, name string, start time.Time) {
	if tr == nil {
		return
	}
	tr.Emit(&obs.Event{
		Type: obs.EvPhase, Name: name,
		// det:allow nodeterminism — span duration is telemetry, not compiler output.
		TimeNS: start.UnixNano(), DurNS: int64(time.Since(start)),
	})
}

// Measure compiles, optimizes, lays out, and runs one request.
func Measure(req Request) (*Run, error) {
	start := time.Now() // det:allow nodeterminism — phase/elapsed telemetry
	prog, err := mcc.Compile(req.Source)
	phaseSpan(req.Tracer, "compile", start)
	if err != nil {
		return nil, fmt.Errorf("ease: %s: %w", req.Name, err)
	}
	run, err := MeasureProgram(prog, req)
	if run != nil {
		run.Elapsed = time.Since(start) // det:allow nodeterminism — phase/elapsed telemetry
	}
	return run, err
}

// MeasureProgram measures an already-compiled (but unoptimized) program.
func MeasureProgram(prog *cfg.Program, req Request) (*Run, error) {
	start := time.Now() // det:allow nodeterminism — phase/elapsed telemetry
	inputRTLs := prog.NumRTLs()
	st := pipeline.Optimize(prog, pipeline.Config{
		Machine: req.Machine,
		Level:   req.Level,
		Spec:    req.Spec,
		Tracer:  req.Tracer,
	})
	optimizeElapsed := time.Since(start) // det:allow nodeterminism — phase/elapsed telemetry
	phaseSpan(req.Tracer, "optimize", start)
	layoutStart := time.Now() // det:allow nodeterminism — phase/elapsed telemetry
	layout := vm.NewLayout(prog, req.Machine)
	phaseSpan(req.Tracer, "layout", layoutStart)
	cfgr := vm.Config{
		Input:   req.Input,
		Profile: req.Tracer != nil,
	}
	var bank *cache.Bank
	var fetch func(addr, size int64)
	if req.SimulateCaches {
		if req.CacheSizes != nil {
			bank = cache.NewBank(req.CacheSizes)
		} else {
			bank = cache.NewPaperBank()
		}
		fetch = bank.Fetch
	}
	if req.OnFetch != nil {
		if fetch == nil {
			fetch = req.OnFetch
		} else {
			prev := fetch
			user := req.OnFetch
			fetch = func(addr, size int64) {
				prev(addr, size)
				user(addr, size)
			}
		}
	}
	if fetch != nil {
		cfgr.Layout = layout
		cfgr.OnFetch = fetch
	}
	runStart := time.Now() // det:allow nodeterminism — phase/elapsed telemetry
	res, err := vm.Run(prog, cfgr)
	phaseSpan(req.Tracer, "run", runStart)
	if err != nil {
		return nil, fmt.Errorf("ease: %s (%s/%s): %w", req.Name, req.Machine.Name, req.Level, err)
	}
	run := &Run{
		Static:          st,
		Dynamic:         res.Counts,
		CodeBytes:       layout.CodeBytes,
		Output:          res.Output,
		ExitCode:        res.ExitCode,
		Elapsed:         time.Since(start), // det:allow nodeterminism — phase/elapsed telemetry
		InputRTLs:       inputRTLs,
		OptimizeElapsed: optimizeElapsed,
	}
	if bank != nil {
		run.Caches = bank.Stats()
	}
	emitProfile(req.Tracer, res.Profile)
	return run, nil
}

// hotSummaryBlocks is the size of the EvHot hot-path summary.
const hotSummaryBlocks = 10

// emitProfile reports the VM execution profile to the tracer: one EvBlock
// event per executed block and an EvHot summary of the hottest blocks.
func emitProfile(tr obs.Tracer, prof *vm.Profile) {
	if tr == nil || prof == nil {
		return
	}
	for _, fp := range prof.Funcs {
		for _, b := range fp.Blocks {
			if b.Count == 0 {
				continue
			}
			tr.Emit(&obs.Event{
				Type: obs.EvBlock, Func: fp.Name, Block: b.Label,
				Count: b.Count, Insts: b.Count * int64(b.Insts),
			})
		}
	}
	for _, h := range prof.Hot(hotSummaryBlocks) {
		tr.Emit(&obs.Event{
			Type: obs.EvHot, Func: h.Func, Block: h.Label,
			Count: h.Count, Insts: h.ExecInsts, Percent: 100 * h.Frac,
		})
	}
}

// PercentChange returns 100*(new-old)/old (0 when old is 0).
func PercentChange(old, new int64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * float64(new-old) / float64(old)
}
