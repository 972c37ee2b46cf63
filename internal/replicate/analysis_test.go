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

// twoJoinsSrc has two if-then-else joins in a row. The sweep replicates
// the first then-part's jump to L3 and then, in the same sweep, reaches
// the second then-part's jump to L6: only an analysis of the function
// after the first replication describes the graph it sees there.
const twoJoinsSrc = `func two(params=1, locals=1):
L0:
	CC = L[fp+0] ? #5
	PC = CC <= 0, L2
L1:
	v0 = #1
	PC = L3
L2:
	v0 = #2
L3:
	CC = v0 ? #1
	PC = CC == 0, L5
L4:
	v1 = #3
	PC = L6
L5:
	v1 = #4
L6:
	PC = RT, rv=v1
`

// TestSweepAnalysis checks the flow analysis each JUMPS sweep holds across
// its jumps: at every jump that reaches step 2 it must equal a fresh
// ComputeEdges, ComputeDominators and NaturalLoops of the function. The
// fixture needs the hand-over of the guard's analysis after a kept
// replication; the corpus adds breadth over the Table-3 programs and
// generated programs on every machine, at JUMPS and at DUPS.
func TestSweepAnalysis(t *testing.T) {
	t.Run("two-joins", func(t *testing.T) {
		f, err := cfg.ParseFunc(twoJoinsSrc)
		if err != nil {
			t.Fatal(err)
		}
		res, visits, err := replicate.JUMPSChecked(f, replicate.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Replications < 2 || visits < 2 {
			t.Fatalf("%d replications, %d jumps checked: the fixture checks no hand-over", res.Replications, visits)
		}
	})
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
		levels := []struct {
			name string
			run  func(*cfg.Func, replicate.Options) (replicate.Result, int, error)
		}{
			{"JUMPS", replicate.JUMPSChecked},
			{"DUPS", replicate.DUPSChecked},
		}
		visits := 0
		for _, lv := range levels {
			for _, m := range machine.All() {
				for i, src := range srcs {
					prog, err := mcc.Compile(src)
					if err != nil {
						t.Fatalf("program %d: %v", i, err)
					}
					for _, f := range prog.Funcs {
						machine.Legalize(f, m)
						n, err := untilFixpoint(f, lv.run)
						visits += n
						if err != nil {
							t.Fatalf("program %d on %s at %s: %v", i, m.Name, lv.name, err)
						}
					}
				}
			}
		}
		t.Logf("%d jumps checked", visits)
		if visits < 1000 {
			t.Fatalf("only %d jumps checked", visits)
		}
	})
}

// untilFixpoint calls a checked replication level on f until it reports no
// change (at most 30 times, the pipeline's iteration cap), removing
// unreachable blocks between calls as the pipeline does, and returns the
// jumps checked.
func untilFixpoint(f *cfg.Func, run func(*cfg.Func, replicate.Options) (replicate.Result, int, error)) (int, error) {
	// A growth cap keeps the all-pairs dominance check affordable.
	opts := replicate.Options{MaxFuncRTLs: 800}
	visits := 0
	for i := 0; i < 30; i++ {
		res, n, err := run(f, opts)
		cfg.RemoveUnreachable(f)
		visits += n
		if err != nil || !res.Changed {
			return visits, err
		}
	}
	return visits, nil
}
