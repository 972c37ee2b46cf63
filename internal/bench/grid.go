package bench

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/ease"
	"repro/internal/obs"
	"repro/internal/replicate"
	"repro/internal/verify"
)

// Pool is the subset of the service worker pool the grid runner needs.
// service.Pool satisfies it; bench deliberately does not import the
// service package so the dependency points service → bench, letting the
// daemon route grid cells through the same pool that serves its
// synchronous requests.
type Pool interface {
	Submit(ctx context.Context, fn func(context.Context)) error
}

// GridConfig describes one full experiment grid run.
type GridConfig struct {
	// Programs to measure (nil = the full Table-3 set).
	Programs []Program
	// Caches enables the Table-6 cache bank (roughly 8x slower).
	Caches bool
	// CacheSizes overrides the paper's {1,2,4,8} KB bank (bytes).
	CacheSizes []int64
	// Replication tunes the JUMPS algorithm.
	Replication replicate.Options
	// VerifyEach runs the semantic IR verifier (internal/verify) after
	// every pipeline pass in every cell; the first violation fails the
	// grid run with the offending pass named in the error.
	VerifyEach bool
	// TV runs the translation validator over every cell's duplication
	// engine (ease.Request.TV): a rejected certificate fails the grid run
	// the same way a VerifyEach violation does.
	TV bool
	// Progress, when non-nil, receives one line per completed cell.
	// Writes are serialized, so any io.Writer is safe.
	Progress io.Writer
	// Pool, when non-nil, runs cells concurrently through the shared
	// worker pool; nil runs them sequentially on the calling goroutine.
	Pool Pool
	// OnCell, when non-nil, is called (serialized) after each completed
	// cell — the daemon uses it for job progress and latency metrics.
	OnCell func(*Cell)
	// Tracer, when non-nil, receives the whole grid's telemetry: a
	// queue-wait span and the full EASE span tree (phases, per-pass
	// spans, decision log, VM profile) per cell, with each cell's events
	// stamped with its machine and level so concurrent cells stay
	// distinguishable. Tracing never changes the measured results: the
	// rendered tables are byte-identical with and without it.
	Tracer obs.Tracer
}

// cellStamp stamps a cell's grid coordinates onto every event that does
// not already carry them (on a copy — emitted events are immutable by
// the Tracer contract).
type cellStamp struct {
	machine string
	level   string
	next    obs.Tracer
}

func (t cellStamp) Emit(ev *obs.Event) {
	cp := *ev
	if cp.Machine == "" {
		cp.Machine = t.machine
	}
	if cp.Level == "" {
		cp.Level = t.level
	}
	t.next.Emit(&cp)
}

// cellSpec is one grid position, fixed before execution so results land
// at deterministic indices regardless of completion order.
type cellSpec struct {
	prog  Program
	mach  int // index into machines
	level int // index into levels
}

// RunGrid measures every (program × machine × level) cell of the
// configured grid. Results are identical with and without a Pool, byte
// for byte: cells are preassigned slice positions in canonical order, so
// concurrency changes only the wall-clock time and the order of progress
// lines.
func RunGrid(ctx context.Context, cfg GridConfig) (*Results, error) {
	progs := cfg.Programs
	if progs == nil {
		progs = Programs()
	}
	var res Results
	res.CacheSizes = cfg.CacheSizes
	if res.CacheSizes == nil {
		res.CacheSizes = []int64{1 * 1024, 2 * 1024, 4 * 1024, 8 * 1024}
	}

	specs := make([]cellSpec, 0, len(progs)*len(machines)*len(levels))
	for _, p := range progs {
		for mi := range machines {
			for li := range levels {
				specs = append(specs, cellSpec{p, mi, li})
			}
		}
	}
	res.Cells = make([]Cell, len(specs))

	var mu sync.Mutex // serializes progress writes, OnCell, and firstErr
	var firstErr error
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	runCell := func(i int, wait time.Duration) {
		sp := specs[i]
		m, lv := machines[sp.mach], levels[sp.level]
		defer func() {
			// A cell that panics (cache.NewBank rejecting a size, say)
			// fails the grid instead of leaving its Run nil.
			if r := recover(); r != nil {
				fail(fmt.Errorf("bench: %s (%s/%s): %v", sp.prog.Name, m.Name, lv, r))
			}
		}()
		tr := cfg.Tracer
		if tr != nil {
			tr = cellStamp{machine: m.Name, level: lv.String(), next: tr}
			tr.Emit(&obs.Event{
				Type: obs.EvPhase, Name: "queue-wait", Func: sp.prog.Name,
				TimeNS: time.Now().Add(-wait).UnixNano(), DurNS: int64(wait), // det:allow nodeterminism — queue-wait telemetry
			})
		}
		run, err := ease.Measure(ease.Request{
			Name:           sp.prog.Name,
			Source:         sp.prog.Source,
			Input:          []byte(sp.prog.Input),
			Machine:        m,
			Level:          lv,
			Replication:    cfg.Replication,
			SimulateCaches: cfg.Caches,
			CacheSizes:     cfg.CacheSizes,
			VerifyEach:     cfg.VerifyEach,
			TV:             cfg.TV,
			Tracer:         tr,
		})
		if err != nil {
			fail(err)
			return
		}
		if err := verify.Error(run.Static.Verify); err != nil {
			fail(fmt.Errorf("bench: %s (%s/%s): %w", sp.prog.Name, m.Name, lv, err))
			return
		}
		res.Cells[i] = Cell{
			Program: sp.prog.Name, Machine: m.Name, Level: lv,
			Run: run, QueueWait: wait,
		}
		mu.Lock()
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "measured %-10s %-6s %-6s exec=%d in %s\n",
				sp.prog.Name, m.Name, lv, run.Dynamic.Exec,
				run.Elapsed.Round(time.Millisecond))
		}
		if cfg.OnCell != nil {
			cfg.OnCell(&res.Cells[i])
		}
		mu.Unlock()
	}

	if cfg.Pool == nil {
		for i := range specs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			runCell(i, 0)
			if firstErr != nil {
				return nil, firstErr
			}
		}
	} else {
		var wg sync.WaitGroup
		for i := range specs {
			if ctx.Err() != nil {
				break
			}
			i := i
			wg.Add(1)
			submitted := time.Now() // det:allow nodeterminism — queue-wait telemetry
			err := cfg.Pool.Submit(ctx, func(ctx context.Context) {
				defer wg.Done()
				if ctx.Err() != nil {
					return
				}
				runCell(i, time.Since(submitted)) // det:allow nodeterminism — queue-wait telemetry
			})
			if err != nil {
				wg.Done()
				fail(err)
				break
			}
		}
		wg.Wait()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &res, nil
}
