package replicate

import (
	"fmt"

	"repro/internal/cfg"
)

// JUMPSMatrix is JUMPS with the paper's Floyd–Warshall matrix answering
// step 1, for the external tests that compare it against JUMPS.
func JUMPSMatrix(f *cfg.Func, opts Options) Result { return jumps(f, opts, matrixFinder) }

// CondElimChecked runs DUPS' conditional elimination on f fold by fold, in
// condElim's order, and after every fold compares the running decided-edge
// count with a full countDecidedEdges. It returns the number of folds and
// the first difference.
func CondElimChecked(f *cfg.Func, opts Options) (int, error) {
	c := newFolder(f, opts)
	folds := 0
	for !c.g.exhausted(f) {
		made := 0
		for pi := 0; pi < len(f.Blocks) && !c.g.exhausted(f); pi++ {
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
