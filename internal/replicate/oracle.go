package replicate

// pathOracle implements step 1: instead of the paper's eager all-pairs
// matrix it answers shortest-path queries on demand, running a
// single-source Dijkstra (with RTL-count node weights)
// from each queried source the first time that source is seen and
// memoizing the distance row for the lifetime of the sweep.
//
// The JUMPS sweep only ever queries paths *from jump targets* — one source
// per unconditional jump, typically a handful per function — so on large
// functions almost all of the O(V³) Floyd–Warshall work is wasted; the
// oracle does O(E·log V) per distinct target instead. Like the matrix, the
// oracle answers from the graphSnapshot taken at sweep start: replications
// that mutate the function mid-sweep do not perturb memoized rows (the
// stale-by-design semantics the paper prescribes for the matrix), and the
// next sweep's fresh snapshot is the invalidation point. Memoized rows
// from an earlier sweep are never carried over, so only sources that are
// actually re-queried after a CFG mutation get recomputed — the
// incremental win over rebuilding a full matrix every sweep.
type pathOracle struct {
	snap *graphSnapshot
	rows map[int][]int // memoized single-source distances, keyed by source
}

// newPathOracle builds an empty oracle over the snapshot; all work is
// deferred to the first query per source.
func newPathOracle(snap *graphSnapshot) *pathOracle {
	return &pathOracle{snap: snap, rows: make(map[int][]int)}
}

func (o *pathOracle) cost(i int) int { return o.snap.cost[i] }

func (o *pathOracle) dist(i, j int) int { return o.row(i)[j] }

// path returns the canonical shortest block sequence from i to j
// (inclusive of both), or nil if none exists.
func (o *pathOracle) path(i, j int) []int {
	row := o.row(i)
	return canonPath(o.snap, func(x int) int {
		if x == i {
			return o.snap.cost[i]
		}
		return row[x]
	}, i, j)
}

// row returns the memoized single-source distance row for src, computing
// it with Dijkstra on first use. row[src] is the cost of the cyclic path
// src..src when one exists (matching the matrix diagonal); the trivial
// single-block "path" is special-cased by callers, never read from the
// row.
func (o *pathOracle) row(src int) []int {
	if d, ok := o.rows[src]; ok {
		return d
	}
	d := o.dijkstra(src)
	o.rows[src] = d
	return d
}

// dijkstra computes shortest RTL-count distances from src over the
// snapshot. The metric matches the matrix exactly: a path's length is the
// sum of the RTL counts of every block on it, both endpoints included, so
// relaxation along edge u→v is d(v) = d(u) + cost(v) with d(src) seeded to
// cost(src). Distances to src itself are then re-derived through its
// in-edges (the cheapest cycle through src), reproducing the matrix
// diagonal; unreachable blocks stay at inf.
func (o *pathOracle) dijkstra(src int) []int {
	snap := o.snap
	n := len(snap.cost)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = inf
	}
	done := make([]bool, n)
	h := distHeap{nodes: make([]heapNode, 0, 16)}
	dist[src] = snap.cost[src]
	h.push(heapNode{dist[src], src})
	for h.len() > 0 {
		nd := h.pop()
		u := nd.node
		if done[u] || nd.dist > dist[u] {
			continue // stale heap entry
		}
		done[u] = true
		du := dist[u]
		for _, v := range snap.succs[u] {
			if d := du + snap.cost[v]; d < dist[v] {
				dist[v] = d
				h.push(heapNode{d, v})
			}
		}
	}
	// The matrix's diagonal d[src][src] is the cheapest cycle through src
	// (inf when none); recover it from the settled distances so dist(i, i)
	// queries agree between engines.
	cyc := inf
	for _, p := range snap.preds[src] {
		if dist[p] < inf {
			if d := dist[p] + snap.cost[src]; d < cyc {
				cyc = d
			}
		}
	}
	dist[src] = cyc
	return dist
}

// heapNode is one binary-heap entry: a (distance, block) pair. Entries are
// never updated in place; superseded ones are dropped lazily at pop.
type heapNode struct {
	dist int
	node int
}

// distHeap is a minimal binary min-heap over heapNodes, ordered by
// distance (ties broken by block index, which keeps pop order — though not
// the computed distances — deterministic across runs).
type distHeap struct {
	nodes []heapNode
}

func (h *distHeap) len() int { return len(h.nodes) }

func (h *distHeap) less(a, b heapNode) bool {
	return a.dist < b.dist || a.dist == b.dist && a.node < b.node
}

func (h *distHeap) push(n heapNode) {
	h.nodes = append(h.nodes, n)
	i := len(h.nodes) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.nodes[i], h.nodes[p]) {
			break
		}
		h.nodes[i], h.nodes[p] = h.nodes[p], h.nodes[i]
		i = p
	}
}

func (h *distHeap) pop() heapNode {
	top := h.nodes[0]
	last := len(h.nodes) - 1
	h.nodes[0] = h.nodes[last]
	h.nodes = h.nodes[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.nodes) && h.less(h.nodes[l], h.nodes[smallest]) {
			smallest = l
		}
		if r < len(h.nodes) && h.less(h.nodes[r], h.nodes[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.nodes[i], h.nodes[smallest] = h.nodes[smallest], h.nodes[i]
		i = smallest
	}
	return top
}
