package opt_test

import (
	"slices"
	"testing"

	"repro/internal/cfg"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/opt"
	"repro/internal/rtl"
)

// mergeRebuild is the reference for opt.MergeBlocks: it merges the lowest
// block that can absorb its successor, then rebuilds the edges and rescans
// from block 0, until no block can.
func mergeRebuild(f *cfg.Func) bool {
	changed := false
	for {
		e := cfg.ComputeEdges(f)
		merged := false
		for _, b := range f.Blocks {
			succs := e.Succs[b.Index]
			if len(succs) != 1 {
				continue
			}
			s := succs[0]
			if s == b || s.Index == 0 || len(e.Preds[s.Index]) != 1 {
				continue
			}
			if t := b.Term(); t != nil && t.Kind != rtl.Jmp {
				continue
			}
			if t := b.Term(); t != nil {
				if s.Index != b.Index+1 {
					st := s.Term()
					if st == nil || (st.Kind != rtl.Jmp && st.Kind != rtl.IJmp && st.Kind != rtl.Ret) {
						continue
					}
				}
				b.Insts = b.Insts[:len(b.Insts)-1]
			} else if s.Index != b.Index+1 {
				continue
			}
			b.Insts = append(b.Insts, s.Insts...)
			f.Blocks = slices.Delete(f.Blocks, s.Index, s.Index+1)
			f.Renumber()
			merged, changed = true, true
			break
		}
		e.Release()
		if !merged {
			return changed
		}
	}
}

// mergeMatchesRebuild runs opt.MergeBlocks on f and the reference on a
// clone, fails the test on any difference in the result or the code, and
// returns MergeBlocks' result and the number of blocks it merged away.
func mergeMatchesRebuild(t *testing.T, f *cfg.Func) (bool, int) {
	t.Helper()
	ref := f.Clone()
	n := len(f.Blocks)
	want := mergeRebuild(ref)
	got := opt.MergeBlocks(f)
	if got != want || f.String() != ref.String() {
		t.Fatalf("MergeBlocks reports %t, the rebuild %t; got\n%s\nwant\n%s", got, want, f, ref)
	}
	for i, b := range f.Blocks {
		if b.Index != i {
			t.Fatalf("block %v at position %d has Index %d", b.Label, i, b.Index)
		}
	}
	return got, n - len(f.Blocks)
}

// Fixtures whose second merge needs a block below the first merge's to be
// scanned again.
const (
	// predSrc: L0 jumps to L2, which falls through, so L0 cannot take it.
	// L2 then absorbs L3 and ends in L3's return, and now L0, L2's single
	// predecessor, can take L2.
	predSrc = `func p(params=0, locals=0):
L0:
	v0 = #1
	PC = L2
L1:
	PC = RT, rv=v0
L2:
	v0 = v0 + #1
L3:
	PC = RT, rv=v0
`
	// frontSrc: L4 jumps back to L2 and absorbs it. L1 jumps to L3, which
	// falls through, and with L2 gone L3 follows L1, so L1 can take it.
	frontSrc = `func q(params=1, locals=1):
L0:
	CC = L[fp+0] ? #0
	PC = CC == 0, L4
L1:
	v0 = #2
	PC = L3
L2:
	PC = RT, rv=v0
L3:
	v0 = v0 + #1
L4:
	v0 = #5
	PC = L2
`
)

// TestMergeBlocksMatchesRebuild checks MergeBlocks' patched edges and
// resumed scan against the reference that rebuilds the edges and rescans
// from block 0 after every merge. The fixtures each need one of the blocks
// the scan resumes from; the corpus checks every MergeBlocks call of the
// Figure-3 passes over the programs and cells of
// TestCoalescingMatchesRebuild.
func TestMergeBlocksMatchesRebuild(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		merges    int
	}{
		{"predecessor", predSrc, 2},
		{"front", frontSrc, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := cfg.ParseFunc(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if _, n := mergeMatchesRebuild(t, f); n != tc.merges {
				t.Fatalf("%d merges, want %d:\n%s", n, tc.merges, f)
			}
		})
	}
	t.Run("corpus", func(t *testing.T) {
		srcs := coalesceSources()
		calls, merges := 0, 0
		check := func(f *cfg.Func) bool {
			changed, n := mergeMatchesRebuild(t, f)
			calls++
			merges += n
			return changed
		}
		for _, m := range machine.All() {
			for _, rep := range allLevels {
				for _, src := range srcs {
					p, err := mcc.Compile(src)
					if err != nil {
						t.Fatal(err)
					}
					for _, f := range p.Funcs {
						figure3(f, m, rep, check)
					}
				}
			}
		}
		t.Logf("%d MergeBlocks calls, %d merges checked", calls, merges)
		if merges == 0 {
			t.Fatal("no block was merged")
		}
	})
}
