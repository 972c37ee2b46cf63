package opt_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/difftest"
	"repro/internal/encode"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/opt"
	"repro/internal/replicate"
)

// figure3 takes f through the passes internal/pipeline runs before
// register allocation, in its order: the prologue, the do-while loop (with
// replication counted as progress only while it lowers the jump count or
// folds a branch) and the finishing legalization and jump-table lowering.
// merge stands in for opt.MergeBlocks.
func figure3(f *cfg.Func, m *machine.Machine, replicateF func(*cfg.Func, replicate.Options) replicate.Result, merge func(*cfg.Func) bool) {
	machine.Legalize(f, m)
	opt.BranchChaining(f)
	opt.DeadCodeElimination(f)
	cfg.ReorderBlocks(f)
	replicateF(f, replicate.Options{})
	opt.DeadCodeElimination(f)
	opt.PromoteLocals(f)
	for i := 0; i < 30; i++ {
		changed := opt.CommonSubexpressions(f, m)
		changed = opt.DeadVariableElimination(f) || changed
		changed = opt.CodeMotion(f) || changed
		changed = opt.StrengthReduction(f) || changed
		changed = opt.FoldConstants(f) || changed
		changed = opt.InstructionSelection(f, m) || changed
		changed = opt.BranchChaining(f) || changed
		changed = opt.FoldBranches(f) || changed
		changed = cfg.DeleteJumpsToNext(f) || changed
		before := replicate.CountJumps(f)
		r := replicateF(f, replicate.Options{})
		opt.DeadCodeElimination(f)
		changed = replicate.CountJumps(f) < before || r.BranchesFolded > 0 || changed
		changed = opt.DeadCodeElimination(f) || changed
		changed = merge(f) || changed
		if !changed {
			break
		}
	}
	machine.Legalize(f, m)
	encode.LowerJumpTables(f, m)
}

// coalesceSources are the programs the in-place-update checks compile: the
// Table-3 programs and generated fuzz programs.
func coalesceSources() []string {
	var srcs []string
	for _, p := range bench.Programs() {
		srcs = append(srcs, p.Source)
	}
	// Generator seeds 1-3 compile in about two seconds over all 12 cells;
	// seed 4's DUPS compile alone takes longer than that.
	for seed := int64(1); seed <= 3; seed++ {
		srcs = append(srcs, difftest.Generate(seed))
	}
	return srcs
}

// allLevels are the replication passes of the four levels, SIMPLE's
// being none.
var allLevels = []func(*cfg.Func, replicate.Options) replicate.Result{
	func(*cfg.Func, replicate.Options) replicate.Result { return replicate.Result{} },
	replicate.LOOPS, replicate.JUMPS, replicate.DUPS,
}

// TestCoalescingMatchesRebuild checks the coalescer's in-place updates:
// after every merge its liveness and interference adjacency must equal a
// fresh ComputeLiveness and buildInterference. The functions are the
// Table-3 programs and generated fuzz programs, compiled by mcc and taken
// through the Figure-3 passes at every level on every machine.
func TestCoalescingMatchesRebuild(t *testing.T) {
	srcs := coalesceSources()
	merges := 0
	for _, m := range machine.All() {
		for _, rep := range allLevels {
			for _, src := range srcs {
				p, err := mcc.Compile(src)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range p.Funcs {
					figure3(f, m, rep, opt.MergeBlocks)
					n, err := opt.CoalesceChecked(f, m)
					if err != nil {
						t.Fatalf("%s: %v", m.Name, err)
					}
					merges += n
				}
			}
		}
	}
	if merges == 0 {
		t.Fatal("no copy was coalesced")
	}
	t.Logf("%d merges checked", merges)
}
