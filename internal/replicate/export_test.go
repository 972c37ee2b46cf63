package replicate

import (
	"fmt"
	"slices"

	"repro/internal/cfg"
)

// JUMPSMatrix is JUMPS with the paper's Floyd–Warshall matrix answering
// step 1, for the external tests that compare it against JUMPS.
func JUMPSMatrix(f *cfg.Func, opts Options) Result { return jumps(f, opts, matrixFinder, nil) }

// JUMPSChecked runs JUMPS on f and, at every jump that reaches step 2,
// compares the flow analysis the sweep holds, and the loops computed from
// it, with a fresh ComputeEdges, ComputeDominators and NaturalLoops of the
// function as it stands. It returns JUMPS' result, the number of jumps
// checked and the first difference.
func JUMPSChecked(f *cfg.Func, opts Options) (Result, int, error) {
	visits := 0
	var first error
	res := jumps(f, opts, oracleFinder, func(d *cfg.Dominators, loops []*cfg.Loop) {
		visits++
		if err := matchesFresh(f, d, loops); err != nil && first == nil {
			first = fmt.Errorf("%s: jump %d: %w", f.Name, visits, err)
		}
	})
	return res, visits, first
}

// DUPSChecked is DUPS with each of its JUMPS legs checked as JUMPSChecked
// checks it.
func DUPSChecked(f *cfg.Func, opts Options) (Result, int, error) {
	visits := 0
	var first error
	res := dups(f, opts, func(f *cfg.Func, opts Options) Result {
		r, n, err := JUMPSChecked(f, opts)
		visits += n
		if first == nil {
			first = err
		}
		return r
	})
	return res, visits, first
}

// matchesFresh compares a held flow analysis and its loops with ones
// computed from scratch for f as it now stands: successor and predecessor
// lists, Dominates over all pairs of blocks, and each loop's header and
// members.
func matchesFresh(f *cfg.Func, d *cfg.Dominators, loops []*cfg.Loop) error {
	e := cfg.ComputeEdges(f)
	defer e.Release()
	fd := cfg.ComputeDominators(e)
	defer fd.Release()
	fl := cfg.NaturalLoops(e, fd)
	n := len(f.Blocks)
	if len(d.E.Succs) != n || len(d.E.Preds) != n {
		return fmt.Errorf("held edges cover %d blocks, the function has %d", len(d.E.Succs), n)
	}
	for i, b := range f.Blocks {
		if !slices.Equal(d.E.Succs[i], e.Succs[i]) {
			return fmt.Errorf("successors of %v differ", b.Label)
		}
		if !slices.Equal(d.E.Preds[i], e.Preds[i]) {
			return fmt.Errorf("predecessors of %v differ", b.Label)
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if d.Dominates(a, b) != fd.Dominates(a, b) {
				return fmt.Errorf("held dominators say %v dominates %v is %t", f.Blocks[a].Label, f.Blocks[b].Label, d.Dominates(a, b))
			}
		}
	}
	if len(loops) != len(fl) {
		return fmt.Errorf("%d held loops, %d fresh", len(loops), len(fl))
	}
	for k := range loops {
		if loops[k].Header != fl[k].Header {
			return fmt.Errorf("loop %d: header %v, fresh %v", k, loops[k].Header.Label, fl[k].Header.Label)
		}
		if !slices.Equal(loops[k].BlockIndices(), fl[k].BlockIndices()) {
			return fmt.Errorf("loop %d headed by %v: members differ", k, fl[k].Header.Label)
		}
	}
	return nil
}

// CondElimChecked runs DUPS' conditional elimination on f fold by fold, in
// condElim's order, and after every fold compares the running decided-edge
// count with a full countDecidedEdges. It returns the number of folds and
// the first difference.
func CondElimChecked(f *cfg.Func, opts Options) (int, error) {
	c := newFolder(f, opts)
	folds := 0
	for !c.g.exhausted() {
		made := 0
		for pi := 0; pi < len(f.Blocks) && !c.g.exhausted(); pi++ {
			if !c.foldFrom(f.Blocks[pi]) {
				continue
			}
			made++
			folds++
			if want := countDecidedEdges(f); c.decided != want {
				return folds, fmt.Errorf("%s: after fold %d: running count %d, recount %d", f.Name, folds, c.decided, want)
			}
		}
		if made == 0 {
			return folds, nil
		}
	}
	return folds, nil
}
