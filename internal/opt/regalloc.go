package opt

import (
	"sort"

	"repro/internal/cfg"
	"repro/internal/machine"
	"repro/internal/rtl"
)

// regSet is a small map-based mutable register set, used for the
// allocator's sparse bookkeeping (interference adjacency, spill temps,
// Briggs neighbour counting). The dense liveness sets are RegSet bitsets.
type regSet map[rtl.Reg]struct{}

func (s regSet) add(r rtl.Reg) bool {
	if _, ok := s[r]; ok {
		return false
	}
	s[r] = struct{}{}
	return true
}

func (s regSet) has(r rtl.Reg) bool { _, ok := s[r]; return ok }

// PromoteLocals is the paper's "register assignment" phase: scalar locals
// and parameters whose address is never taken are assigned to (virtual)
// registers, turning frame traffic into register traffic. Parameters gain a
// prologue copy out of their incoming frame slot, and so does any promoted
// local that may be read before it is written: the language zero-initializes
// the frame, and the copy keeps that behaviour visible in the register —
// which also establishes the invariant the semantic verifier
// (internal/verify) checks, that every register read is preceded by a
// definition on every path from the entry. Reports whether anything changed.
func PromoteLocals(f *cfg.Func) bool {
	// Offsets whose address escapes cannot be promoted.
	blocked := map[int64]bool{}
	for _, b := range f.Blocks {
		for ii := range b.Insts {
			in := &b.Insts[ii]
			ops := []rtl.Operand{in.Dst, in.Src, in.Src2}
			for _, o := range ops {
				if o.Kind == rtl.OAddrLocal {
					blocked[o.Val] = true
				}
			}
		}
	}
	promoted := map[int64]rtl.Reg{}
	for _, off := range f.ScalarLocals {
		if !blocked[off] {
			promoted[off] = f.NewVReg()
		}
	}
	if len(promoted) == 0 {
		return false
	}
	needsInit := uninitReads(f, promoted)
	rewrite := func(o *rtl.Operand) {
		if o.Kind == rtl.OLocal {
			if r, ok := promoted[o.Val]; ok {
				*o = rtl.R(r)
			}
		}
	}
	for _, b := range f.Blocks {
		for ii := range b.Insts {
			in := &b.Insts[ii]
			rewrite(&in.Dst)
			rewrite(&in.Src)
			rewrite(&in.Src2)
		}
	}
	// Prologue copies: promoted parameters (the calling convention delivers
	// arguments in the frame) and promoted locals with a possibly-
	// uninitialized read (the frame slot holds the zero the program would
	// have observed). Sorted offsets keep the emitted prologue
	// deterministic.
	var prologue []rtl.Inst
	for i := 0; i < f.NParams; i++ {
		if r, ok := promoted[int64(i)]; ok {
			prologue = append(prologue, rtl.Inst{Kind: rtl.Move, Dst: rtl.R(r), Src: rtl.Local(int64(i))})
		}
	}
	var inits []int64
	for off := range needsInit {
		if off >= int64(f.NParams) {
			inits = append(inits, off)
		}
	}
	sort.Slice(inits, func(i, j int) bool { return inits[i] < inits[j] })
	for _, off := range inits {
		prologue = append(prologue, rtl.Inst{Kind: rtl.Move, Dst: rtl.R(promoted[off]), Src: rtl.Local(off)})
	}
	if len(prologue) > 0 {
		entry := f.Entry()
		entry.Insts = append(prologue, entry.Insts...)
	}
	return true
}

// uninitReads finds the promoted frame offsets with a read that is not
// preceded by a write on every path from the entry — a forward
// must-assigned dataflow over the promoted scalars, run before the operand
// rewrite. Parameters count as assigned at the entry (the call wrote them).
func uninitReads(f *cfg.Func, promoted map[int64]rtl.Reg) map[int64]bool {
	e := cfg.ComputeEdges(f)
	n := len(f.Blocks)
	writes := make([]map[int64]bool, n)
	for i, b := range f.Blocks {
		w := map[int64]bool{}
		for ii := range b.Insts {
			in := &b.Insts[ii]
			if in.Dst.Kind == rtl.OLocal {
				if _, ok := promoted[in.Dst.Val]; ok {
					w[in.Dst.Val] = true
				}
			}
		}
		writes[i] = w
	}

	// in[i]: offsets assigned on every path from the entry to block i; nil
	// marks a block not yet reached (unreachable blocks stay nil and are
	// not scanned: they never execute).
	in := make([]map[int64]bool, n)
	entry := map[int64]bool{}
	for i := 0; i < f.NParams; i++ {
		if _, ok := promoted[int64(i)]; ok {
			entry[int64(i)] = true
		}
	}
	in[0] = entry
	out := func(i int) map[int64]bool {
		if in[i] == nil {
			return nil
		}
		o := make(map[int64]bool, len(in[i])+len(writes[i]))
		for off := range in[i] {
			o[off] = true
		}
		for off := range writes[i] {
			o[off] = true
		}
		return o
	}
	for changed := true; changed; {
		changed = false
		for i := 1; i < n; i++ {
			var cur map[int64]bool
			for _, p := range e.Preds[i] {
				po := out(p.Index)
				if po == nil {
					continue
				}
				if cur == nil {
					cur = po
					continue
				}
				for off := range cur {
					if !po[off] {
						delete(cur, off)
					}
				}
			}
			if cur == nil {
				continue
			}
			if in[i] != nil && len(cur) == len(in[i]) {
				same := true
				for off := range cur {
					if !in[i][off] {
						same = false
						break
					}
				}
				if same {
					continue
				}
			}
			in[i] = cur
			changed = true
		}
	}

	needs := map[int64]bool{}
	for i, b := range f.Blocks {
		if in[i] == nil {
			continue
		}
		cur := make(map[int64]bool, len(in[i]))
		for off := range in[i] {
			cur[off] = true
		}
		for ii := range b.Insts {
			in2 := &b.Insts[ii]
			for _, o := range in2.SrcOperands() {
				if o.Kind != rtl.OLocal || cur[o.Val] {
					continue
				}
				if _, ok := promoted[o.Val]; ok {
					needs[o.Val] = true
				}
			}
			if in2.Dst.Kind == rtl.OLocal {
				if _, ok := promoted[in2.Dst.Val]; ok {
					cur[in2.Dst.Val] = true
				}
			}
		}
	}
	return needs
}

// AllocateRegisters maps every virtual register to one of the machine's
// allocatable registers by graph colouring, spilling to fresh frame slots
// when the graph is uncolourable ("register allocation by register
// coloring" in Figure 3). The simulated call convention gives every frame
// its own register file, so calls clobber nothing.
func AllocateRegisters(f *cfg.Func, m *machine.Machine) {
	// Defensive: hand-constructed functions (tests, fixtures) may use
	// virtual registers the function never allocated; make sure fresh
	// temporaries cannot collide with them.
	for _, b := range f.Blocks {
		for ii := range b.Insts {
			in := &b.Insts[ii]
			for _, o := range []rtl.Operand{in.Dst, in.Src, in.Src2} {
				for _, r := range []rtl.Reg{o.Reg, o.Index} {
					if r.IsVirtual() && int(r-rtl.VRegBase) >= f.NVRegs {
						f.NVRegs = int(r-rtl.VRegBase) + 1
					}
				}
			}
		}
	}
	// Conservative move coalescing (Briggs): merging copy-related,
	// non-interfering registers deletes the copies outright and shortens
	// the code the tables measure.
	c := newCoalescer(f, m)
	for i := 0; i < 200; i++ {
		if !c.coalesceOne() {
			break
		}
	}
	c.release()
	// temps accumulates the short-range temporaries created by spilling;
	// they are never chosen as spill victims again (re-spilling them makes
	// no progress).
	temps := regSet{}
	for round := 0; round < 60; round++ {
		if tryColor(f, m, temps) {
			return
		}
	}
	panic("opt: register allocation did not converge for " + f.Name)
}

// coalescer performs conservative copy coalescing. It builds the flow
// edges, the liveness and the interference adjacency once and keeps them
// exact across merges. Merging src into dst renames src to dst and deletes
// the copy `dst = src`; nothing else changes, so:
//
//   - the flow edges stand, since deleting a Move changes no terminator;
//   - every other register keeps its liveness, since it gains or loses no
//     use or definition;
//   - an edge between two other registers stands, since it comes from a
//     definition of one where the other is live, and both are unchanged.
//
// So a merge deletes src's node and recomputes dst's liveness and dst's
// interference row alone (merge).
type coalescer struct {
	f   *cfg.Func
	k   int
	e   *cfg.Edges
	lv  *Liveness
	adj map[rtl.Reg]regSet
	// Scratch for merge: per-block facts about the merged register, the
	// instUses buffer and the row walk's live set.
	kill, mention []bool
	uses          []rtl.Reg
	live          RegSet
}

func newCoalescer(f *cfg.Func, m *machine.Machine) *coalescer {
	e := cfg.ComputeEdges(f)
	lv := ComputeLiveness(f, e)
	return &coalescer{
		f: f, k: m.NumRegs, e: e, lv: lv,
		adj:     interferenceOf(f, lv, nil).adj,
		kill:    make([]bool, len(f.Blocks)),
		mention: make([]bool, len(f.Blocks)),
	}
}

// release returns the edges and liveness to the function's scratch arena.
func (c *coalescer) release() {
	c.lv.Release()
	c.e.Release()
}

// coalesceOne finds the first coalescible register copy `a = b` in layout
// order — both virtual, non-interfering, and safe by the Briggs criterion
// (the merged node has fewer than K neighbours of significant degree, so
// coalescing cannot turn a colourable graph uncolourable) — rewrites b to a
// everywhere and drops the copy. Reports whether it coalesced anything.
func (c *coalescer) coalesceOne() bool {
	for _, b := range c.f.Blocks {
		for ii := range b.Insts {
			in := &b.Insts[ii]
			if in.Kind != rtl.Move || in.Dst.Kind != rtl.OReg || in.Src.Kind != rtl.OReg {
				continue
			}
			dst, src := in.Dst.Reg, in.Src.Reg
			if dst == src || !dst.IsVirtual() || !src.IsVirtual() {
				continue
			}
			if c.adj[dst].has(src) {
				continue // live ranges overlap; the copy is load-bearing
			}
			// Briggs: count merged neighbours with degree >= K.
			significant := 0
			seen := regSet{}
			for n := range c.adj[dst] {
				if seen.add(n) && len(c.adj[n]) >= c.k {
					significant++
				}
			}
			for n := range c.adj[src] {
				if seen.add(n) && len(c.adj[n]) >= c.k {
					significant++
				}
			}
			if significant >= c.k {
				continue
			}
			renameReg(c.f, src, dst)
			// The copy became `a = a`; delete it.
			b.Insts = append(b.Insts[:ii], b.Insts[ii+1:]...)
			c.merge(dst, src)
			return true
		}
	}
	return false
}

// merge brings the liveness and the adjacency up to date after src was
// renamed to dst and their copy deleted.
func (c *coalescer) merge(dst, src rtl.Reg) {
	for n := range c.adj[src] {
		delete(c.adj[n], src)
	}
	delete(c.adj, src)
	for n := range c.adj[dst] {
		delete(c.adj[n], dst)
	}
	delete(c.adj, dst)
	if !c.relive(dst, src) {
		return // the copy was dst's last occurrence: no node
	}
	// Every register in the row occurs in the code, so it has a node.
	row := c.row(dst)
	for n := range row {
		c.adj[n].add(dst)
	}
	c.adj[dst] = row
}

// relive recomputes r's bit in every block's live-in and live-out set by a
// one-register backward dataflow over the unchanged flow graph, and clears
// gone's bits, since gone no longer occurs. Like ComputeLiveness it starts
// from In = gen, Out = empty, so it reaches the same least fixpoint. It
// records which blocks define and mention r for row, and reports whether r
// occurs anywhere.
func (c *coalescer) relive(r, gone rtl.Reg) bool {
	lv := c.lv
	occurs := false
	for i, b := range c.f.Blocks {
		gen, kill, mention := false, false, false
		for ii := range b.Insts {
			in := &b.Insts[ii]
			c.uses = instUses(in, c.uses[:0])
			for _, u := range c.uses {
				if u == r {
					mention = true
					gen = gen || !kill
				}
			}
			if instDef(in) == r {
				kill, mention = true, true
			}
		}
		c.kill[i], c.mention[i] = kill, mention
		occurs = occurs || mention
		lv.In[i].Remove(gone)
		lv.Out[i].Remove(gone)
		lv.Out[i].Remove(r)
		if gen {
			lv.In[i].Add(r)
		} else {
			lv.In[i].Remove(r)
		}
	}
	for changed := true; changed; {
		changed = false
		for i := len(c.f.Blocks) - 1; i >= 0; i-- {
			if lv.Out[i].Has(r) {
				continue
			}
			for _, s := range c.e.Succs[i] {
				if lv.In[s.Index].Has(r) {
					lv.Out[i].Add(r)
					if !c.kill[i] {
						lv.In[i].Add(r)
					}
					changed = true
					break
				}
			}
		}
	}
	return occurs
}

// row recomputes r's interference row from the current liveness, walking
// backward only the blocks where r is live out or mentioned: r is live
// nowhere else. The edges are the ones interferenceOf adds, seen from r.
func (c *coalescer) row(r rtl.Reg) regSet {
	row := regSet{}
	for i, b := range c.f.Blocks {
		if !c.mention[i] && !c.lv.Out[i].Has(r) {
			continue
		}
		c.live.CopyFrom(c.lv.Out[i])
		for ii := len(b.Insts) - 1; ii >= 0; ii-- {
			in := &b.Insts[ii]
			d := instDef(in)
			copySrc := rtl.RegNone
			if in.Kind == rtl.Move && in.Src.Kind == rtl.OReg {
				copySrc = in.Src.Reg
			}
			switch {
			case d == r:
				c.live.ForEach(func(l rtl.Reg) {
					if l != copySrc && l != r && l.IsVirtual() {
						row.add(l)
					}
				})
			case d != rtl.RegNone && d.IsVirtual() && copySrc != r && c.live.Has(r):
				row.add(d)
			}
			if d != rtl.RegNone {
				c.live.Remove(d)
			}
			c.uses = instUses(in, c.uses[:0])
			for _, u := range c.uses {
				c.live.Add(u)
			}
		}
	}
	return row
}

// renameReg rewrites every occurrence of register old to new.
func renameReg(f *cfg.Func, old, new rtl.Reg) {
	rw := func(o *rtl.Operand) {
		switch o.Kind {
		case rtl.OReg:
			if o.Reg == old {
				o.Reg = new
			}
		case rtl.OMem:
			if o.Reg == old {
				o.Reg = new
			}
			if o.Index == old {
				o.Index = new
			}
		}
	}
	for _, b := range f.Blocks {
		for ii := range b.Insts {
			in := &b.Insts[ii]
			rw(&in.Dst)
			rw(&in.Src)
			rw(&in.Src2)
		}
	}
}

// interference is the allocator's view of a function: the interference
// graph over virtual registers and loop-depth-weighted use counts.
type interference struct {
	adj      map[rtl.Reg]regSet
	useCount map[rtl.Reg]int
}

// buildInterference computes the interference graph with spill costs.
func buildInterference(f *cfg.Func) *interference {
	e := cfg.ComputeEdges(f)
	lv := ComputeLiveness(f, e)
	// Spill costs weight each use by 10^(loop depth) so inner-loop values
	// stay in registers and cold values get spilled first.
	d := cfg.ComputeDominators(e)
	loops := cfg.NaturalLoops(e, d)
	d.Release()
	depthWeight := make([]int, len(f.Blocks))
	for i := range depthWeight {
		w := 1
		for _, l := range loops {
			if l.Contains(i) {
				w *= 10
				if w >= 10000 {
					break
				}
			}
		}
		depthWeight[i] = w
	}
	g := interferenceOf(f, lv, depthWeight)
	lv.Release()
	e.Release()
	return g
}

// interferenceOf builds the interference graph from a liveness; with a nil
// depthWeight it leaves the use counts empty. A copy's source does not
// interfere with its destination, which both enables coalescing and avoids
// wasting a colour on pure moves.
func interferenceOf(f *cfg.Func, lv *Liveness, depthWeight []int) *interference {
	g := &interference{adj: map[rtl.Reg]regSet{}, useCount: map[rtl.Reg]int{}}
	ensure := func(r rtl.Reg) {
		if g.adj[r] == nil {
			g.adj[r] = regSet{}
		}
	}
	addEdge := func(a, b rtl.Reg) {
		if a == b || !a.IsVirtual() || !b.IsVirtual() {
			return
		}
		ensure(a)
		ensure(b)
		g.adj[a].add(b)
		g.adj[b].add(a)
	}
	var scratch []rtl.Reg
	var live RegSet
	for _, b := range f.Blocks {
		live.CopyFrom(lv.Out[b.Index])
		for ii := len(b.Insts) - 1; ii >= 0; ii-- {
			in := &b.Insts[ii]
			d := instDef(in)
			if d != rtl.RegNone && d.IsVirtual() {
				ensure(d)
				var copySrc rtl.Reg = rtl.RegNone
				if in.Kind == rtl.Move && in.Src.Kind == rtl.OReg {
					copySrc = in.Src.Reg
				}
				live.ForEach(func(l rtl.Reg) {
					if l != copySrc {
						addEdge(d, l)
					}
				})
			}
			if d != rtl.RegNone {
				live.Remove(d)
			}
			scratch = instUses(in, scratch[:0])
			for _, r := range scratch {
				live.Add(r)
				if r.IsVirtual() {
					ensure(r)
					if depthWeight != nil {
						g.useCount[r] += depthWeight[b.Index]
					}
				}
			}
		}
	}
	return g
}

// tryColor attempts one colouring; on failure it inserts spill code for the
// chosen victims and reports false.
func tryColor(f *cfg.Func, m *machine.Machine, temps regSet) bool {
	g := buildInterference(f)
	adj, useCount := g.adj, g.useCount
	if len(adj) == 0 {
		return true
	}
	// Chaitin–Briggs simplification with optimistic colouring.
	k := m.NumRegs
	degree := map[rtl.Reg]int{}
	for r, s := range adj {
		degree[r] = len(s)
	}
	removed := regSet{}
	var stack []rtl.Reg
	nodes := make([]rtl.Reg, 0, len(adj))
	for r := range adj {
		nodes = append(nodes, r)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for len(stack) < len(nodes) {
		picked := rtl.RegNone
		for _, r := range nodes {
			if !removed.has(r) && degree[r] < k {
				picked = r
				break
			}
		}
		if picked == rtl.RegNone {
			// Optimistic: push the cheapest high-degree node.
			best, bestScore := rtl.RegNone, 0.0
			for _, r := range nodes {
				if removed.has(r) {
					continue
				}
				score := float64(useCount[r]+1) / float64(degree[r]+1)
				if best == rtl.RegNone || score < bestScore {
					best, bestScore = r, score
				}
			}
			picked = best
		}
		removed.add(picked)
		stack = append(stack, picked)
		for n := range adj[picked] {
			if !removed.has(n) {
				degree[n]--
			}
		}
	}
	color := map[rtl.Reg]int{}
	var spills []rtl.Reg
	for i := len(stack) - 1; i >= 0; i-- {
		r := stack[i]
		used := make([]bool, k)
		for n := range adj[r] {
			if c, ok := color[n]; ok {
				used[c] = true
			}
		}
		assigned := -1
		for c := 0; c < k; c++ {
			if !used[c] {
				assigned = c
				break
			}
		}
		if assigned < 0 {
			spills = append(spills, r)
			continue
		}
		color[r] = assigned
	}
	if len(spills) > 0 {
		// Map each uncolourable node to a spill victim that can actually
		// relieve pressure: the node itself unless it is a spill
		// temporary, in which case the cheapest interfering non-temporary.
		victims := regSet{}
		for _, r := range spills {
			v := r
			if temps.has(r) {
				v = rtl.RegNone
				bestScore := 0.0
				for n := range adj[r] {
					if temps.has(n) {
						continue
					}
					score := float64(useCount[n]+1) / float64(len(adj[n])+1)
					// Tie-break on the register number: adj is a map, so a
					// strict < here would leave the victim to iteration
					// order and make spill slots (and thus the whole
					// compile) nondeterministic.
					if v == rtl.RegNone || score < bestScore || score == bestScore && n < v {
						v, bestScore = n, score
					}
				}
				if v == rtl.RegNone {
					v = r // pathological; spill the temp anyway
				}
			}
			victims.add(v)
		}
		// Spill in register order: the order assigns frame slots and fresh
		// temporaries, so iterating the set directly would compile the same
		// function to different (equivalent) code run to run.
		ordered := make([]rtl.Reg, 0, len(victims))
		for v := range victims {
			ordered = append(ordered, v)
		}
		sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
		for _, v := range ordered {
			spillReg(f, v, temps)
		}
		return false
	}
	// Rewrite virtual registers with their colours.
	rewrite := func(o *rtl.Operand) {
		switch o.Kind {
		case rtl.OReg:
			if o.Reg.IsVirtual() {
				o.Reg = rtl.FirstAlloc + rtl.Reg(color[o.Reg])
			}
		case rtl.OMem:
			if o.Reg.IsVirtual() {
				o.Reg = rtl.FirstAlloc + rtl.Reg(color[o.Reg])
			}
			if o.Index != rtl.RegNone && o.Index.IsVirtual() {
				o.Index = rtl.FirstAlloc + rtl.Reg(color[o.Index])
			}
		}
	}
	for _, b := range f.Blocks {
		for ii := range b.Insts {
			in := &b.Insts[ii]
			rewrite(&in.Dst)
			rewrite(&in.Src)
			rewrite(&in.Src2)
		}
	}
	return true
}

// spillReg rewrites every use/def of r through a dedicated frame slot with
// short-lived temporaries. A register whose only definition materializes a
// constant or address is rematerialized at each use instead of being kept
// in memory.
func spillReg(f *cfg.Func, r rtl.Reg, temps regSet) {
	if rematerialize(f, r, temps) {
		return
	}
	slot := int64(f.NLocals)
	f.NLocals++
	for _, b := range f.Blocks {
		var out []rtl.Inst
		for ii := range b.Insts {
			in := b.Insts[ii]
			reads := regReads(&in, r)
			defines := instDef(&in) == r
			if !reads && !defines {
				out = append(out, in)
				continue
			}
			t := f.NewVReg()
			temps.add(t)
			if reads {
				out = append(out, rtl.Inst{Kind: rtl.Move, Dst: rtl.R(t), Src: rtl.Local(slot)})
				substituteReg(&in, r, rtl.R(t))
			}
			if defines {
				// Replace the defined register too.
				if in.Dst.Kind == rtl.OReg && in.Dst.Reg == r {
					in.Dst.Reg = t
				}
				out = append(out, in)
				out = append(out, rtl.Inst{Kind: rtl.Move, Dst: rtl.Local(slot), Src: rtl.R(t)})
			} else {
				out = append(out, in)
			}
		}
		b.Insts = out
	}
}

// rematerialize handles the cheap-spill case: r has exactly one definition
// and it is `r = <imm or address>`. Each use is rewritten to recompute the
// value into a fresh short-lived temporary (or to use the constant operand
// directly when no addressing is involved), and the single definition is
// left for dead-variable elimination. Reports whether it applied.
func rematerialize(f *cfg.Func, r rtl.Reg, temps regSet) bool {
	var defOp rtl.Operand
	defs := 0
	for _, b := range f.Blocks {
		for ii := range b.Insts {
			in := &b.Insts[ii]
			if instDef(in) == r {
				defs++
				if defs > 1 || in.Kind != rtl.Move || !in.Src.IsImmLike() {
					return false
				}
				defOp = in.Src
			}
		}
	}
	if defs != 1 {
		return false
	}
	for _, b := range f.Blocks {
		var out []rtl.Inst
		for ii := range b.Insts {
			in := b.Insts[ii]
			if instDef(&in) == r && in.Kind == rtl.Move && in.Src.Equal(defOp) {
				continue // drop the original definition
			}
			if !regReads(&in, r) {
				out = append(out, in)
				continue
			}
			t := f.NewVReg()
			temps.add(t)
			out = append(out, rtl.Inst{Kind: rtl.Move, Dst: rtl.R(t), Src: defOp})
			substituteReg(&in, r, rtl.R(t))
			out = append(out, in)
		}
		b.Insts = out
	}
	return true
}
