package replicate_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/difftest"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/replicate"
)

// Fixtures for the running ProfitFolds count.
const (
	// intoPSrc: L1's branch targets its own fall-through, so L1 is not
	// foldable. Folding the taken edge L1 -> L2 makes L1 foldable and
	// decides L0 -> L1, so the count stays 2; only a recount of the edges
	// into the fold's source sees that.
	intoPSrc = `func d(params=0, locals=0):
L0:
	v0 = #5
L1:
	CC = v0 ? #5
	PC = CC == 0, L2
L2:
	CC = v0 ? #5
	PC = CC == 0, L4
L3:
	PC = RT, rv=v0
L4:
	v1 = #9
	PC = RT, rv=v1
`
	// copyOutSrc: the copy of L2 made for the jump L0 -> L2 carries
	// v0 = #1, which decides L4 along the copy's jump, so after that first
	// fold the count stays 2; only a count of the copy's own edges sees it.
	copyOutSrc = `func c(params=1, locals=1):
L0:
	v1 = #3
	PC = L2
L1:
	v1 = L[fp+0]
L2:
	v0 = #1
	CC = v1 ? #3
	PC = CC == 0, L4
L3:
	PC = RT, rv=v1
L4:
	CC = v0 ? #0
	PC = CC > 0, L6
L5:
	PC = RT, rv=v0
L6:
	PC = RT, rv=v1
`
)

// TestRunningDecidedCount checks the running ProfitFolds count that DUPS'
// conditional elimination keeps around each fold: after every fold it must
// equal a full recount of the function's decided edges. The two fixtures
// each need one half of the count (the edges into the fold's source, the
// copy's own edges); the corpus sweep adds breadth over the Table-3
// programs and generated programs on every machine.
func TestRunningDecidedCount(t *testing.T) {
	for _, tc := range []struct{ name, src string }{
		{"into-source", intoPSrc},
		{"copy-out", copyOutSrc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := cfg.ParseFunc(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			folds, err := replicate.CondElimChecked(f, replicate.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if folds == 0 {
				t.Fatal("no fold applied: the fixture checks nothing")
			}
		})
	}
	t.Run("corpus", func(t *testing.T) {
		var srcs []string
		for _, p := range bench.Programs() {
			srcs = append(srcs, p.Source)
		}
		seeds := 40
		if testing.Short() {
			seeds = 8
		}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			srcs = append(srcs, difftest.Generate(seed))
		}
		folds := 0
		for _, m := range machine.All() {
			for i, src := range srcs {
				prog, err := mcc.Compile(src)
				if err != nil {
					t.Fatalf("program %d: %v", i, err)
				}
				for _, f := range prog.Funcs {
					machine.Legalize(f, m)
					n, err := dupsChecked(f)
					if err != nil {
						t.Fatalf("program %d on %s: %v", i, m.Name, err)
					}
					folds += n
				}
			}
		}
		t.Logf("%d folds checked", folds)
		if folds < 100 {
			t.Fatalf("only %d folds checked", folds)
		}
	})
}

// dupsChecked calls DUPS on f until it reports no change (at most 30
// times, the pipeline's iteration cap), with every conditional-elimination
// pass checked fold by fold and unreachable blocks removed between calls,
// as the pipeline does. While JUMPS still changes something DUPS folds
// nothing, so a single call would check no fold at all.
func dupsChecked(f *cfg.Func) (int, error) {
	// A growth cap keeps the full recount after every fold affordable.
	opts := replicate.Options{MaxFuncRTLs: 1500}
	folds := 0
	for i := 0; i < 30; i++ {
		if replicate.JUMPS(f, opts).Changed {
			cfg.RemoveUnreachable(f)
			continue
		}
		n, err := replicate.CondElimChecked(f, opts)
		cfg.RemoveUnreachable(f)
		folds += n
		if err != nil || n == 0 {
			return folds, err
		}
	}
	return folds, nil
}
