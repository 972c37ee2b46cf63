package replicate

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cfg"
	"repro/internal/obs"
	"repro/internal/rtl"
)

// fixtureSrcs names every RTL-text fixture of the package; the
// differential tests run each through both path finders.
var fixtureSrcs = map[string]string{
	"table1":   table1Src,
	"table2":   table2Src,
	"forShape": forShapeSrc,
}

// finders lists both step-1 implementations: the paper's Floyd–Warshall
// matrix (the reference) and the on-demand oracle every sweep uses.
var finders = []struct {
	name string
	fn   func(*graphSnapshot) pathFinder
}{{"matrix", matrixFinder}, {"oracle", oracleFinder}}

// jumpsTrace runs JUMPS over a fresh parse of src with the given path
// finder and returns the OmitTimings JSONL decision trace plus the
// resulting function text and counters.
func jumpsTrace(t *testing.T, src string, finder func(*graphSnapshot) pathFinder, opts Options) (trace []byte, text string, res Result) {
	t.Helper()
	f, err := cfg.ParseFunc(src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	w.OmitTimings = true
	opts.Tracer = w
	res = jumps(f, opts, finder, nil)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), f.String(), res
}

// TestEngineEquivalenceFixtures is the differential proof that the oracle
// reproduces the paper's step 1: every fixture, under every heuristic and
// the main option toggles, must produce byte-identical JSONL decision
// traces — and therefore identical candidate sequences, rollbacks, and
// final code — whether step 1 is answered by the all-pairs matrix or the
// on-demand oracle.
func TestEngineEquivalenceFixtures(t *testing.T) {
	variants := []Options{
		{},
		{Heuristic: HeurReturns},
		{Heuristic: HeurLoops},
		{Heuristic: HeurFrequency},
		{MaxSeqRTLs: 4},
		{NoLoopCompletion: true},
		{AllowIndirect: true},
	}
	for name, src := range fixtureSrcs {
		for vi, opts := range variants {
			t.Run(fmt.Sprintf("%s/variant%d", name, vi), func(t *testing.T) {
				mTrace, mText, mRes := jumpsTrace(t, src, matrixFinder, opts)
				oTrace, oText, oRes := jumpsTrace(t, src, oracleFinder, opts)
				if !bytes.Equal(mTrace, oTrace) {
					t.Errorf("decision traces differ:\nmatrix:\n%s\noracle:\n%s", mTrace, oTrace)
				}
				if mText != oText {
					t.Errorf("resulting functions differ:\nmatrix:\n%s\noracle:\n%s", mText, oText)
				}
				if mRes != oRes {
					t.Errorf("results differ: matrix %+v, oracle %+v", mRes, oRes)
				}
			})
		}
	}
}

// TestEngineEquivalenceRandomGraphs cross-checks the oracle against the
// matrix exhaustively at the query level: on randomly wired flow graphs,
// every pairwise distance and every canonical path must agree. This covers
// queries the sweep never issues (i == j diagonals, unreachable pairs,
// dense fan-in ties) and pins the two to each other independently of
// JUMPS.
func TestEngineEquivalenceRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for g := 0; g < 60; g++ {
		n := 2 + rng.Intn(12)
		f := cfg.NewFunc(fmt.Sprintf("g%d", g), 0)
		blocks := make([]*cfg.Block, n)
		for i := range blocks {
			blocks[i] = f.NewBlock()
		}
		for i, b := range blocks {
			// 1–8 RTLs of padding, then a terminator: return, jump, branch,
			// or fall-through (no terminator).
			for k, nr := 0, 1+rng.Intn(8); k < nr; k++ {
				b.Insts = append(b.Insts, rtl.Inst{Kind: rtl.Move, Dst: rtl.R(v(0)), Src: rtl.Imm(int64(k))})
			}
			tgt := blocks[rng.Intn(n)].Label
			switch rng.Intn(4) {
			case 0:
				b.Insts = append(b.Insts, rtl.Inst{Kind: rtl.Ret, Src: rtl.None()})
			case 1:
				b.Insts = append(b.Insts, rtl.Inst{Kind: rtl.Jmp, Target: tgt})
			case 2:
				b.Insts = append(b.Insts,
					rtl.Inst{Kind: rtl.Cmp, Src: rtl.R(v(0)), Src2: rtl.Imm(0)},
					rtl.Inst{Kind: rtl.Br, BrRel: rtl.Lt, Target: tgt})
			case 3:
				if i == n-1 {
					b.Insts = append(b.Insts, rtl.Inst{Kind: rtl.Ret, Src: rtl.None()})
				}
			}
		}
		e := cfg.ComputeEdges(f)
		snap := snapshotGraph(f, e)
		m := newPathMatrix(snap)
		o := newPathOracle(snap)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if md, od := m.dist(i, j), o.dist(i, j); md != od {
					t.Fatalf("graph %d: dist(%d,%d): matrix %d, oracle %d", g, i, j, md, od)
				}
				mp, op := m.path(i, j), o.path(i, j)
				if fmt.Sprint(mp) != fmt.Sprint(op) {
					t.Fatalf("graph %d: path(%d,%d): matrix %v, oracle %v", g, i, j, mp, op)
				}
				// A non-nil path must really be a path of the claimed length.
				if mp != nil && i != j {
					total := 0
					for _, x := range mp {
						total += snap.cost[x]
					}
					if total != m.dist(i, j) {
						t.Fatalf("graph %d: path(%d,%d) = %v costs %d, dist says %d", g, i, j, mp, total, m.dist(i, j))
					}
					for k := 0; k+1 < len(mp); k++ {
						found := false
						for _, s := range snap.succs[mp[k]] {
							if s == mp[k+1] {
								found = true
							}
						}
						if !found {
							t.Fatalf("graph %d: path(%d,%d) = %v has no edge %d->%d", g, i, j, mp, mp[k], mp[k+1])
						}
					}
				}
			}
		}
	}
}

// TestParseHeuristic pins the wire and CLI spellings: exactly "" and
// "shortest", "returns" and "loops" are accepted; the frequency heuristic
// has no name.
func TestParseHeuristic(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Heuristic
		err  bool
	}{
		{"", HeurShortest, false},
		{"shortest", HeurShortest, false},
		{"returns", HeurReturns, false},
		{"loops", HeurLoops, false},
		{"frequency", HeurShortest, true},
		{"Loops", HeurShortest, true},
	} {
		got, err := ParseHeuristic(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseHeuristic(%q) = %v, %v; want %v, err=%v", tc.in, got, err, tc.want, tc.err)
		}
		if !tc.err && tc.in != "" && got.String() != tc.in {
			t.Errorf("ParseHeuristic(%q).String() = %q", tc.in, got)
		}
	}
}
