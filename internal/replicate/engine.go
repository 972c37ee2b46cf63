package replicate

import (
	"math"

	"repro/internal/cfg"
	"repro/internal/rtl"
)

// inf is the "no path" distance.
const inf = math.MaxInt32

// pathFinder abstracts step 1 for the sweep: per-block RTL costs, pairwise
// shortest distances (RTL count over the path, both endpoints included),
// and canonical shortest paths. It answers from a snapshot of the flow
// graph taken at construction (sweep start) — the sweep deliberately keeps
// using that snapshot while replications mutate the function, exactly as
// the paper's once-per-sweep matrix does; the next sweep constructs a
// fresh finder, which is the invalidation point. The sweep uses the
// on-demand pathOracle; the package's tests compare it against the
// paper's Floyd–Warshall matrix (matrix_test.go).
type pathFinder interface {
	// cost returns the snapshot RTL count of block i.
	cost(i int) int
	// dist returns the minimal RTL count over paths i..j (both endpoints
	// included), or inf if no path exists. i == j is not a valid query
	// (callers special-case the single-block path).
	dist(i, j int) int
	// path returns the canonical shortest block-index sequence from i to j
	// (inclusive), the single-block path for i == j, or nil if none exists.
	path(i, j int) []int
}

// oracleFinder builds the path finder of every production sweep over its
// sweep-start snapshot.
func oracleFinder(s *graphSnapshot) pathFinder { return newPathOracle(s) }

// graphSnapshot captures the flow graph's costs and transitions at sweep
// start: per-block RTL counts plus successor/predecessor adjacency with the
// paper's step-1 exclusions applied (no self-reflexive transitions, no
// transitions out of blocks ending in indirect jumps — a jump table cannot
// be spliced into straight-line code). The oracle, the test-only matrix and
// the shared path reconstruction read only this snapshot, which is what
// makes their answers identical while the sweep mutates the underlying
// function.
type graphSnapshot struct {
	cost  []int
	succs [][]int
	preds [][]int
}

// snapshotGraph captures f's blocks and edges. The adjacency rows are
// views into two shared backing arrays (one per direction), sized by a
// counting pass, so a snapshot costs a fixed handful of allocations rather
// than one per block.
func snapshotGraph(f *cfg.Func, e *cfg.Edges) *graphSnapshot {
	n := len(f.Blocks)
	s := &graphSnapshot{
		cost:  make([]int, n),
		succs: make([][]int, n),
		preds: make([][]int, n),
	}
	keep := func(i, j int) bool {
		if j == i {
			return false // no self-reflexive transitions
		}
		if t := f.Blocks[i].Term(); t != nil && t.Kind == rtl.IJmp {
			return false // paths may not traverse indirect jumps
		}
		return true
	}
	outDeg := make([]int, n)
	inDeg := make([]int, n)
	total := 0
	for i, b := range f.Blocks {
		s.cost[i] = len(b.Insts)
		for _, sb := range e.Succs[i] {
			if keep(i, sb.Index) {
				outDeg[i]++
				inDeg[sb.Index]++
				total++
			}
		}
	}
	sBack := make([]int, total)
	pBack := make([]int, total)
	so, po := 0, 0
	for i := 0; i < n; i++ {
		s.succs[i] = sBack[so : so : so+outDeg[i]]
		so += outDeg[i]
		s.preds[i] = pBack[po : po : po+inDeg[i]]
		po += inDeg[i]
	}
	for i := range f.Blocks {
		for _, sb := range e.Succs[i] {
			if j := sb.Index; keep(i, j) {
				s.succs[i] = append(s.succs[i], j)
				s.preds[j] = append(s.preds[j], i)
			}
		}
	}
	return s
}

// canonPath reconstructs the canonical shortest path from src to dst out
// of single-source distances alone, so every finder that computes correct
// distances yields byte-identical candidate sequences. distTo(x) must
// return the minimal RTL count src..x (both endpoints included), inf when
// unreachable, and cost[src] for x == src (the trivial path).
//
// The canonical choice: walking backwards from dst, always take the
// lowest-indexed predecessor that lies on some shortest path and has not
// been visited yet (the visit guard makes zero-cost cycles, which tie with
// their own repetitions, terminate). Returns nil when reconstruction fails
// (unreachable dst, or a pathological all-visited frontier).
func canonPath(snap *graphSnapshot, distTo func(int) int, src, dst int) []int {
	if src == dst {
		return []int{src}
	}
	if distTo(dst) >= inf {
		return nil
	}
	n := len(snap.cost)
	seq := make([]int, 0, 8)
	seq = append(seq, dst)
	inSeq := make(map[int]bool, 8)
	inSeq[dst] = true
	x := dst
	for x != src {
		if len(seq) > n {
			return nil // fail safe; cannot happen with consistent distances
		}
		dx := distTo(x)
		best := -1
		for _, p := range snap.preds[x] {
			if inSeq[p] || (best >= 0 && p >= best) {
				continue
			}
			if dp := distTo(p); dp < inf && dp+snap.cost[x] == dx {
				best = p
			}
		}
		if best < 0 {
			return nil
		}
		seq = append(seq, best)
		inSeq[best] = true
		x = best
	}
	// Built back-to-front; reverse in place.
	for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
		seq[i], seq[j] = seq[j], seq[i]
	}
	return seq
}
