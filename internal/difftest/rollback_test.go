package difftest

import (
	"testing"

	"repro/internal/mcc"
	"repro/internal/replicate"
)

// TestUndoLogRestoresGeneratedPrograms is the undo-log acceptance test at
// fuzzing scale: over a band of generated programs, force every guarded
// duplication (JUMPS splices, DUPS folds and LOOPS rotations alike) to roll
// back and require the function to come back byte-identical — text,
// fresh-label counter and block count. This is the same fault the
// `fuzzjump -inject undo` campaign drives through the full oracle.
func TestUndoLogRestoresGeneratedPrograms(t *testing.T) {
	opts := replicate.Options{ForceRollback: true}
	for seed := int64(1); seed <= 25; seed++ {
		prog, err := mcc.Compile(Generate(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, f := range prog.Funcs {
			before := f.String()
			mark := f.LabelMark()
			blocks := len(f.Blocks)
			res := replicate.DUPS(f, opts)
			res.Merge(replicate.LOOPS(f, opts))
			if res.Replications != 0 || res.BranchesFolded != 0 {
				t.Fatalf("seed %d %s: applied work under ForceRollback: %+v", seed, f.Name, res)
			}
			if got := f.String(); got != before {
				t.Errorf("seed %d %s: rollback not byte-identical\ngot:\n%s\nwant:\n%s",
					seed, f.Name, got, before)
			}
			if got := f.LabelMark(); got != mark {
				t.Errorf("seed %d %s: label counter not rewound: got %v, want %v",
					seed, f.Name, got, mark)
			}
			if got := len(f.Blocks); got != blocks {
				t.Errorf("seed %d %s: block count changed: got %d, want %d",
					seed, f.Name, got, blocks)
			}
		}
	}
}
