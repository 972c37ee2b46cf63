package cfg

import "math/bits"

// Dominators holds the dominator tree of a function, computed with the
// Cooper–Harvey–Kennedy algorithm ("A Simple, Fast Dominance Algorithm"):
// an idom fixpoint over reverse postorder. Dominance queries answer in
// O(1) from an Euler interval numbering of the dominator tree. The
// replication engine's reducibility guard computes dominators for every
// edit it attempts, so this path dominates (sic) the differential fuzzer's
// and the optimizer's profile — the earlier set-based formulation was
// quadratic in blocks and made large replicated functions take seconds per
// sweep. The tree's storage is borrowed from the function's Scratch arena;
// Release returns it for the next ComputeDominators to reuse.
type Dominators struct {
	E *Edges
	// idom[i] is the immediate dominator's index, or -1 for the entry and
	// unreachable blocks.
	idom []int32
	// pre/post are Euler-tour interval numbers of each block in the
	// dominator tree; a dominates b iff a's interval encloses b's.
	// Unreachable blocks keep pre == 0 (no interval).
	pre, post []int32
	// finish[i] is block i's postorder number in the depth-first search
	// of the flow graph that ordered the fixpoint, or -1 for unreachable
	// blocks. Reducible reads the search's retreating edges off it.
	finish []int32

	f   *Func
	buf []int32
}

// Release returns the tree's storage to the function's Scratch arena. Safe
// to call more than once; the tree must not be queried afterwards.
func (d *Dominators) Release() {
	if d == nil || d.buf == nil {
		return
	}
	d.f.Scratch().PutInts(d.buf)
	d.buf = nil
	d.idom, d.pre, d.post, d.finish = nil, nil, nil, nil
}

// ComputeDominators computes the dominator tree on the given edge snapshot.
// Steady-state recomputation on a warm Scratch arena is allocation-free.
func ComputeDominators(e *Edges) *Dominators {
	f := e.F
	n := len(f.Blocks)
	scr := f.Scratch()
	keep := scr.Ints(4 * n)
	d := &Dominators{E: e, f: f, buf: keep}
	d.idom, d.pre, d.post, d.finish = keep[:n:n], keep[n:2*n:2*n], keep[2*n:3*n:3*n], keep[3*n:]
	for i := 0; i < n; i++ {
		d.idom[i] = -1
		d.pre[i] = 0
		d.post[i] = 0
	}
	if n == 0 {
		return d
	}

	// Temporary arrays: postorder list, dominator-tree child links, and a
	// two-word DFS stack (block, successor cursor).
	tmp := scr.Ints(5 * n)
	rpoNum := d.finish // block index -> postorder number; -1 unreachable, -2 on stack
	postList := tmp[:n:n]
	childHead := tmp[n : 2*n : 2*n]
	childNext := tmp[2*n : 3*n : 3*n]
	stackB := tmp[3*n : 4*n : 4*n]
	stackS := tmp[4*n:]
	for i := 0; i < n; i++ {
		rpoNum[i] = -1
	}

	// Reverse postorder over reachable blocks.
	nPost := 0
	top := 0
	stackB[top], stackS[top] = 0, 0
	top++
	rpoNum[0] = -2
	for top > 0 {
		b := stackB[top-1]
		succs := e.Succs[b]
		if int(stackS[top-1]) < len(succs) {
			s := int32(succs[stackS[top-1]].Index)
			stackS[top-1]++
			if rpoNum[s] == -1 {
				rpoNum[s] = -2
				stackB[top], stackS[top] = s, 0
				top++
			}
			continue
		}
		rpoNum[b] = int32(nPost)
		postList[nPost] = b
		nPost++
		top--
	}

	// CHK fixpoint. intersect walks the idom chains in postorder numbers.
	intersect := func(a, b int32) int32 {
		for a != b {
			for rpoNum[a] < rpoNum[b] {
				a = d.idom[a]
			}
			for rpoNum[b] < rpoNum[a] {
				b = d.idom[b]
			}
		}
		return a
	}
	d.idom[0] = 0 // temporary self-loop for the fixpoint
	for changed := true; changed; {
		changed = false
		for pi := nPost - 1; pi >= 0; pi-- {
			b := postList[pi]
			if b == 0 {
				continue
			}
			newIdom := int32(-1)
			for _, p := range e.Preds[b] {
				pidx := int32(p.Index)
				if rpoNum[pidx] < 0 || d.idom[pidx] < 0 {
					continue // unreachable or not yet processed
				}
				if newIdom < 0 {
					newIdom = pidx
				} else {
					newIdom = intersect(pidx, newIdom)
				}
			}
			if newIdom >= 0 && d.idom[b] != newIdom {
				d.idom[b] = newIdom
				changed = true
			}
		}
	}

	// Euler intervals of the dominator tree for O(1) Dominates.
	for i := 0; i < n; i++ {
		childHead[i], childNext[i] = -1, -1
	}
	// Children are linked in reverse block order, preserving determinism.
	for i := int32(n - 1); i >= 1; i-- {
		if rpoNum[i] < 0 {
			continue
		}
		p := d.idom[i]
		childNext[i] = childHead[p]
		childHead[p] = i
	}
	clock := int32(0)
	top = 0
	stackB[top], stackS[top] = 0, childHead[0]
	top++
	clock++
	d.pre[0] = clock
	for top > 0 {
		if c := stackS[top-1]; c >= 0 {
			stackS[top-1] = childNext[c]
			clock++
			d.pre[c] = clock
			stackB[top], stackS[top] = c, childHead[c]
			top++
			continue
		}
		clock++
		d.post[stackB[top-1]] = clock
		top--
	}

	d.idom[0] = -1 // restore the exported convention
	scr.PutInts(tmp)
	return d
}

// Dominates reports whether block a dominates block b (by index). Every
// block dominates itself, including unreachable blocks; otherwise only
// reachable blocks participate in dominance.
func (d *Dominators) Dominates(a, b int) bool {
	if a < 0 || b < 0 || a >= len(d.pre) || b >= len(d.pre) {
		return false
	}
	if a == b {
		return true
	}
	if d.pre[a] == 0 || d.pre[b] == 0 {
		return false
	}
	return d.pre[a] <= d.pre[b] && d.post[b] <= d.post[a]
}

// Loop is a natural loop: a header and the set of blocks (by index) forming
// the loop body, derived from one or more back edges into the header. The
// member set is a bitset; query it with Contains, ForEachBlock or
// BlockIndices.
type Loop struct {
	Header *Block
	// Latches are the sources of the back edges.
	Latches []*Block

	bits  []uint64
	count int
}

// Contains reports whether the loop contains the block with the given index.
func (l *Loop) Contains(idx int) bool {
	return idx >= 0 && idx>>6 < len(l.bits) && l.bits[idx>>6]&(1<<(uint(idx)&63)) != 0
}

// add inserts a block index, reporting whether it was new.
func (l *Loop) add(idx int) bool {
	w := idx >> 6
	bit := uint64(1) << (uint(idx) & 63)
	if l.bits[w]&bit != 0 {
		return false
	}
	l.bits[w] |= bit
	l.count++
	return true
}

// ForEachBlock calls fn for every member block index in ascending order.
func (l *Loop) ForEachBlock(fn func(idx int)) {
	for wi, w := range l.bits {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// BlockIndices returns the loop's block indices in ascending order; any
// consumer whose result depends on visit order (hoisting, candidate
// selection) iterates through this to keep compilation deterministic.
func (l *Loop) BlockIndices() []int {
	idxs := make([]int, 0, l.count)
	l.ForEachBlock(func(idx int) { idxs = append(idxs, idx) })
	return idxs
}

// NaturalLoops finds all natural loops of the function: for every back edge
// t->h where h dominates t, the loop body is h plus every block that can
// reach t without passing through h. Loops sharing a header are merged, as is
// conventional.
func NaturalLoops(e *Edges, d *Dominators) []*Loop {
	n := len(e.F.Blocks)
	nw := (n + 63) / 64
	byHeader := make(map[*Block]*Loop)
	var loops []*Loop
	var stack []*Block
	for _, b := range e.F.Blocks {
		for _, s := range e.Succs[b.Index] {
			if d.Dominates(s.Index, b.Index) {
				l := byHeader[s]
				if l == nil {
					l = &Loop{Header: s, bits: make([]uint64, nw)}
					l.add(s.Index)
					byHeader[s] = l
					loops = append(loops, l)
				}
				l.Latches = append(l.Latches, b)
				// Collect the body by walking predecessors from the latch.
				if l.add(b.Index) {
					stack = append(stack[:0], b)
					for len(stack) > 0 {
						x := stack[len(stack)-1]
						stack = stack[:len(stack)-1]
						for _, p := range e.Preds[x.Index] {
							if l.add(p.Index) {
								stack = append(stack, p)
							}
						}
					}
				}
			}
		}
	}
	return loops
}

// LoopHeaderOf returns the innermost loop headed by block b, or nil.
func LoopHeaderOf(loops []*Loop, b *Block) *Loop {
	var best *Loop
	for _, l := range loops {
		if l.Header == b {
			if best == nil || l.count < best.count {
				best = l
			}
		}
	}
	return best
}

// InnermostLoopContaining returns the smallest loop containing block index
// idx, or nil.
func InnermostLoopContaining(loops []*Loop, idx int) *Loop {
	var best *Loop
	for _, l := range loops {
		if l.Contains(idx) {
			if best == nil || l.count < best.count {
				best = l
			}
		}
	}
	return best
}

// Reducible reports whether the flow graph the dominators were computed on
// is reducible: every edge that retreats in a depth-first search must be a
// back edge, its target dominating its source. The search is the one that
// ordered the dominator fixpoint, and an edge i -> j retreats in it exactly
// when j finishes no earlier than i (j is i or one of its ancestors), so
// the test reads the search's postorder numbers instead of searching again.
// The replication algorithm rolls back any replication that breaks this
// property (step 6 of JUMPS).
func (d *Dominators) Reducible() bool {
	for i, succs := range d.E.Succs {
		fi := d.finish[i]
		if fi < 0 {
			continue // unreachable: the search never leaves it
		}
		for _, s := range succs {
			if j := s.Index; d.finish[j] >= fi && !d.Dominates(j, i) {
				return false
			}
		}
	}
	return true
}

// IsReducible reports whether f's flow graph is reducible; see
// Dominators.Reducible.
func IsReducible(f *Func) bool {
	e := ComputeEdges(f)
	d := ComputeDominators(e)
	ok := d.Reducible()
	d.Release()
	e.Release()
	return ok
}
