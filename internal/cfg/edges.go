package cfg

import "repro/internal/rtl"

// Edges is a snapshot of the flow graph's successor/predecessor lists,
// indexed by Block.Index. It is invalidated by any structural change to the
// function; recompute with ComputeEdges.
//
// The lists are views into one flat backing array (compressed sparse row
// form) owned by the Edges value. Calling Release returns the value to the
// function's Scratch arena for the next ComputeEdges to reuse; after
// Release the lists must not be used.
type Edges struct {
	F     *Func
	Succs [][]*Block
	Preds [][]*Block

	flat     []*Block   // backing for every successor and predecessor list
	hdrs     [][]*Block // backing for Succs and Preds
	labelIdx []int32    // label number -> block index, -1 if absent
	succIdx  []int32    // per-edge successor block indexes, CSR order
	offs     []int32    // per-block offsets into succIdx (len n+1)
	predOff  []int32    // per-block offsets into the predecessor half of flat
	cursor   []int32    // fill cursor for the predecessor transpose
	released bool
}

// termWithSlot returns the block's control-transfer instruction, tolerating
// the one trailing delay-slot instruction FillDelaySlots leaves after it.
// Mid-pipeline the CTI is always last (cfg.Validate pins it there), so this
// matches Term until slot filling; afterwards a block ending "Jmp; nop"
// must not read as a fall-through — post-slot analyses (the verifier's
// liveness) would otherwise walk an edge the machine never takes.
func termWithSlot(b *Block) *rtl.Inst {
	if n := len(b.Insts); n >= 2 && !b.Insts[n-1].IsCTI() && b.Insts[n-2].IsCTI() {
		return &b.Insts[n-2]
	}
	return b.Term()
}

// ComputeEdges builds the successor and predecessor lists for f's current
// layout. The result reuses buffers previously returned to the function's
// Scratch via Release; steady-state recomputation is allocation-free.
func ComputeEdges(f *Func) *Edges {
	e := f.Scratch().getEdges()
	e.build(f)
	return e
}

// Release returns the Edges value to its function's Scratch arena. Safe to
// call more than once; the lists must not be used afterwards.
func (e *Edges) Release() {
	if e == nil || e.released || e.F == nil {
		return
	}
	e.released = true
	e.F.Scratch().putEdges(e)
}

// grow32 returns buf resized to length n, reallocating (with headroom) only
// when needed.
func grow32(buf []int32, n int) []int32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int32, n, headroom(n))
}

func (e *Edges) build(f *Func) {
	n := len(f.Blocks)
	e.F = f

	// Dense label index: labels are allocated sequentially per function, so
	// a flat array replaces the former O(blocks) BlockByLabel scan per edge.
	maxLabel := -1
	for _, b := range f.Blocks {
		if l := int(b.Label); l > maxLabel {
			maxLabel = l
		}
	}
	e.labelIdx = grow32(e.labelIdx, maxLabel+1)
	for i := range e.labelIdx {
		e.labelIdx[i] = -1
	}
	for i, b := range f.Blocks {
		if l := int(b.Label); l >= 0 {
			e.labelIdx[l] = int32(i)
		}
	}
	lookup := func(l rtl.Label) int32 {
		if int(l) < 0 || int(l) > maxLabel {
			return -1
		}
		return e.labelIdx[int(l)]
	}

	// Pass 1: successor block indexes in CSR form. Order and de-duplication
	// match the original per-block construction: fall-through first for
	// conditional branches, table order for indirect jumps, duplicates and
	// dangling labels dropped.
	e.offs = grow32(e.offs, n+1)
	succIdx := e.succIdx[:0]
	addTarget := func(start int, t int32) []int32 {
		if t < 0 {
			return succIdx
		}
		for _, s := range succIdx[start:] {
			if s == t {
				return succIdx
			}
		}
		return append(succIdx, t)
	}
	for i, b := range f.Blocks {
		e.offs[i] = int32(len(succIdx))
		start := len(succIdx)
		t := termWithSlot(b)
		switch {
		case t == nil:
			if i+1 < n {
				succIdx = append(succIdx, int32(i+1))
			}
		case t.Kind == rtl.Jmp:
			succIdx = addTarget(start, lookup(t.Target))
		case t.Kind == rtl.Br:
			if i+1 < n {
				succIdx = append(succIdx, int32(i+1))
			}
			succIdx = addTarget(start, lookup(t.Target))
		case t.Kind == rtl.IJmp:
			for _, l := range t.Table {
				succIdx = addTarget(start, lookup(l))
			}
		case t.Kind == rtl.Ret:
			// no successors
		}
	}
	nEdges := len(succIdx)
	e.offs[n] = int32(nEdges)
	e.succIdx = succIdx

	// Pass 2: materialize the lists. flat holds the successor half followed
	// by the predecessor half; hdrs holds the per-block slice headers.
	if cap(e.flat) < 2*nEdges {
		e.flat = make([]*Block, 2*nEdges, headroom(2*nEdges))
	} else {
		e.flat = e.flat[:2*nEdges]
	}
	if cap(e.hdrs) < 2*n {
		e.hdrs = make([][]*Block, 2*n, headroom(2*n))
	} else {
		e.hdrs = e.hdrs[:2*n]
	}
	e.Succs, e.Preds = e.hdrs[:n:n], e.hdrs[n:]

	e.predOff = grow32(e.predOff, n+1)
	for i := range e.predOff {
		e.predOff[i] = 0
	}
	for _, t := range succIdx {
		e.predOff[t+1]++
	}
	for i := 0; i < n; i++ {
		e.predOff[i+1] += e.predOff[i]
	}
	e.cursor = grow32(e.cursor, n)
	copy(e.cursor, e.predOff[:n])

	preds := e.flat[nEdges:]
	for i := 0; i < n; i++ {
		lo, hi := e.offs[i], e.offs[i+1]
		for k := lo; k < hi; k++ {
			t := succIdx[k]
			e.flat[k] = f.Blocks[t]
			preds[e.cursor[t]] = f.Blocks[i]
			e.cursor[t]++
		}
		e.Succs[i] = e.flat[lo:hi:hi]
	}
	for i := 0; i < n; i++ {
		lo, hi := e.predOff[i], e.predOff[i+1]
		e.Preds[i] = preds[lo:hi:hi]
	}
}

// FallThrough returns the block control reaches from b without a taken
// branch: the positionally next block, or nil if b ends in an unconditional
// transfer (Jmp, IJmp, Ret) or is last.
func (f *Func) FallThrough(b *Block) *Block {
	if t := b.Term(); t != nil {
		switch t.Kind {
		case rtl.Jmp, rtl.IJmp, rtl.Ret:
			return nil
		}
	}
	if b.Index+1 < len(f.Blocks) {
		return f.Blocks[b.Index+1]
	}
	return nil
}

// Unreachable returns the blocks not reachable from the entry, in layout
// order, or nil when every block is reachable.
func Unreachable(f *Func) []*Block {
	seen, n := reach(f)
	var dead []*Block
	if n > 0 {
		for i, b := range f.Blocks {
			if !hasBit(seen, i) {
				dead = append(dead, b)
			}
		}
	}
	f.Scratch().PutWords(seen)
	return dead
}

// RemoveUnreachable deletes blocks not reachable from the entry and reports
// whether anything changed. This is the block-level half of dead code
// elimination; replication routinely strands blocks that this pass reclaims.
// Once the function's Scratch arena is warm it allocates nothing.
func RemoveUnreachable(f *Func) bool {
	seen, n := reach(f)
	if n > 0 {
		live := f.Blocks[:0]
		for i, b := range f.Blocks {
			if hasBit(seen, i) {
				live = append(live, b)
			}
		}
		f.Blocks = live
		f.Renumber()
	}
	f.Scratch().PutWords(seen)
	return n > 0
}

// reach walks the flow graph from the entry and returns the bitset of the
// blocks it reached, borrowed from the function's Scratch arena, and the
// number of blocks it did not reach.
func reach(f *Func) ([]uint64, int) {
	n := len(f.Blocks)
	if n == 0 {
		return nil, 0
	}
	e := ComputeEdges(f)
	scr := f.Scratch()
	seen := scr.Words((n + 63) / 64)
	stack := scr.Ints(n)
	top := 0
	stack[top] = 0
	top++
	seen[0] |= 1
	reached := 1
	for top > 0 {
		top--
		b := int(stack[top])
		for _, s := range e.Succs[b] {
			i := s.Index
			if !hasBit(seen, i) {
				seen[i>>6] |= 1 << (uint(i) & 63)
				reached++
				stack[top] = int32(i)
				top++
			}
		}
	}
	e.Release()
	scr.PutInts(stack)
	return seen, n - reached
}

// hasBit reports whether bit i of the bitset is set.
func hasBit(set []uint64, i int) bool { return set[i>>6]&(1<<(uint(i)&63)) != 0 }
