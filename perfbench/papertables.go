package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/ease"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/pipeline"
	"repro/internal/vm"
)

// reference is a program's unoptimized behaviour: mcc.Compile + vm.Run
// with no optimization at all, the yardstick every optimized build must
// match.
type reference struct {
	output []byte
	exit   int64
}

// references runs every program unoptimized. A program with a pinned
// WantOutput must already produce it here.
func references(progs []bench.Program) (map[string]reference, error) {
	refs := make(map[string]reference, len(progs))
	for _, p := range progs {
		prog, err := mcc.Compile(p.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		run, err := vm.Run(prog, vm.Config{Input: []byte(p.Input)})
		if err != nil {
			return nil, fmt.Errorf("%s: reference run: %w", p.Name, err)
		}
		if p.WantOutput != "" && string(run.Output) != p.WantOutput {
			return nil, fmt.Errorf("%s: reference prints %q, want %q", p.Name, run.Output, p.WantOutput)
		}
		refs[p.Name] = reference{run.Output, run.ExitCode}
	}
	return refs, nil
}

// ptCell is one cell of the paper's grid.
type ptCell struct {
	prog bench.Program
	m    *machine.Machine
	lv   pipeline.Level
}

// paperTables is the paper-tables workload: every (program × machine ×
// level) cell of Tables 4–6, compiled, optimized, laid out and run with
// the Table-6 cache bank, one cell at a time — what cmd/tables computes.
// The seed only permutes the cell order; a pass is the whole grid.
type paperTables struct {
	seed  int64
	progs []bench.Program
	cells []ptCell
	refs  map[string]reference
	log   fetchLog
	op    int64
}

// newPaperTables builds the workload over progs (nil = the Table-3 set).
func newPaperTables(seed int64, progs []bench.Program) *paperTables {
	if progs == nil {
		progs = bench.Programs()
	}
	return &paperTables{seed: seed, progs: progs}
}

func (w *paperTables) setup() error {
	var cells []ptCell
	for _, p := range w.progs {
		for _, m := range machine.All() {
			for _, lv := range pipeline.AllLevels() {
				cells = append(cells, ptCell{p, m, lv})
			}
		}
	}
	rng := rand.New(rand.NewSource(w.seed))
	w.cells = make([]ptCell, len(cells))
	for i, j := range rng.Perm(len(cells)) {
		w.cells[i] = cells[j]
	}
	refs, err := references(w.progs)
	if err != nil {
		return err
	}
	w.refs = refs
	// Warm-up: the grid's first cell in table order, the same for every
	// seed, untimed and unchecked.
	_, err = w.measureCell(cells[0])
	return err
}

func (w *paperTables) passOps() int     { return len(w.cells) }
func (w *paperTables) describe() string { return fmt.Sprintf("%d cells per pass", len(w.cells)) }

// measureCell is the untraced op: one ease.Measure with the cache bank on.
func (w *paperTables) measureCell(c ptCell) (*ease.Run, error) {
	return ease.Measure(ease.Request{
		Name: c.prog.Name, Source: c.prog.Source, Input: []byte(c.prog.Input),
		Machine: c.m, Level: c.lv, SimulateCaches: true,
	})
}

func (w *paperTables) pass(tr *tracer) (*passResult, error) {
	pr := &passResult{lat: make([]float64, 0, len(w.cells))}
	for _, c := range w.cells {
		w.op++
		var (
			n     counts
			out   []byte
			exit  int64
			err   error
			start = time.Now()
		)
		if tr == nil {
			var run *ease.Run
			if run, err = w.measureCell(c); err == nil {
				n.addRun(run.Dynamic)
				n.CodeBytes = run.CodeBytes
				n.ICacheMisses = bankMisses(run.Caches)
				out, exit = run.Output, run.ExitCode
			}
		} else {
			root := tr.open("cell", 0, w.op)
			var res *cellResult
			res, err = tracedCell(tr, w.op, root, cellSpec{
				src: c.prog.Source, input: []byte(c.prog.Input), m: c.m, lv: c.lv,
				run: true, caches: true,
			}, &w.log)
			tr.close(root)
			if err == nil {
				n, out, exit = res.counts, res.output, res.exitCode
			}
		}
		pr.lat = append(pr.lat, float64(time.Since(start).Nanoseconds())/1e6)
		pr.counts.add(n)
		ref := w.refs[c.prog.Name]
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "perfbench: %s %s/%s: %v\n", c.prog.Name, c.m.Name, c.lv, err)
		case !bytes.Equal(out, ref.output) || exit != ref.exit:
			fmt.Fprintf(os.Stderr, "perfbench: %s %s/%s: output or exit code differs from the unoptimized reference\n",
				c.prog.Name, c.m.Name, c.lv)
		default:
			continue
		}
		pr.failed++
	}
	return pr, nil
}

func (w *paperTables) traceExtra(*tracer) error { return nil }
