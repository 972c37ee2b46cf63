package opt

import (
	"sort"

	"repro/internal/cfg"
	"repro/internal/machine"
	"repro/internal/rtl"
)

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
	// arguments in the frame) and promoted locals whose register is live
	// into the entry, that is, read on some path before any write (the
	// frame slot holds the zero the program would have observed). The
	// liveness runs after the rewrite: each fresh register occurs exactly
	// where its local did, an instruction's read comes before its write,
	// and unreachable blocks lie on no path from the entry. Sorted offsets
	// keep the emitted prologue deterministic.
	var prologue []rtl.Inst
	for i := 0; i < f.NParams; i++ {
		if r, ok := promoted[int64(i)]; ok {
			prologue = append(prologue, rtl.Inst{Kind: rtl.Move, Dst: rtl.R(r), Src: rtl.Local(int64(i))})
		}
	}
	e := cfg.ComputeEdges(f)
	lv := ComputeLiveness(f, e)
	var inits []int64
	for off, r := range promoted {
		if off >= int64(f.NParams) && lv.In[0].Has(r) {
			inits = append(inits, off)
		}
	}
	lv.Release()
	e.Release()
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
	var temps RegSet
	for round := 0; round < 60; round++ {
		if tryColor(f, m, &temps) {
			return
		}
	}
	panic("opt: register allocation did not converge for " + f.Name)
}

// coalescer performs conservative copy coalescing. It builds the flow
// edges, the liveness and the interference graph once and keeps them
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
	f  *cfg.Func
	k  int
	e  *cfg.Edges
	lv *Liveness
	g  *interference
	// Scratch: the merged neighbours of a candidate copy, per-block facts
	// about the merged register, the instUses buffer and the row walk's
	// live set.
	merged        RegSet
	kill, mention []bool
	uses          []rtl.Reg
	live          RegSet
}

func newCoalescer(f *cfg.Func, m *machine.Machine) *coalescer {
	e := cfg.ComputeEdges(f)
	lv := ComputeLiveness(f, e)
	return &coalescer{
		f: f, k: m.NumRegs, e: e, lv: lv,
		g:       interferenceOf(f, lv, nil),
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
	g := c.g
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
			if g.neighbours(dst).Has(src) {
				continue // live ranges overlap; the copy is load-bearing
			}
			// Briggs: count merged neighbours with degree >= K.
			c.merged.CopyFrom(*g.neighbours(dst))
			c.merged.UnionWith(*g.neighbours(src))
			significant := 0
			c.merged.ForEach(func(n rtl.Reg) {
				if g.neighbours(n).Len() >= c.k {
					significant++
				}
			})
			if significant >= c.k {
				continue
			}
			mapRegs(c.f, func(r rtl.Reg) rtl.Reg {
				if r == src {
					return dst
				}
				return r
			})
			// The copy became `a = a`; delete it.
			b.Insts = append(b.Insts[:ii], b.Insts[ii+1:]...)
			c.merge(dst, src)
			return true
		}
	}
	return false
}

// merge brings the liveness and the interference graph up to date after
// src was renamed to dst and their copy deleted.
func (c *coalescer) merge(dst, src rtl.Reg) {
	g := c.g
	for _, r := range [...]rtl.Reg{src, dst} {
		row := g.neighbours(r)
		row.ForEach(func(n rtl.Reg) { g.neighbours(n).Remove(r) })
		row.Clear()
		g.nodes.Remove(r)
	}
	if !c.relive(dst, src) {
		return // the copy was dst's last occurrence: no node
	}
	g.nodes.Add(dst)
	row := g.neighbours(dst)
	c.row(dst, row)
	row.ForEach(func(n rtl.Reg) { g.neighbours(n).Add(dst) })
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

// row adds r's interference neighbours, from the current liveness, to
// row, walking backward only the blocks where r is live out or mentioned:
// r is live nowhere else. The edges are the ones interferenceOf adds, seen
// from r.
func (c *coalescer) row(r rtl.Reg, row *RegSet) {
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
						row.Add(l)
					}
				})
			case d != rtl.RegNone && d.IsVirtual() && copySrc != r && c.live.Has(r):
				row.Add(d)
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
}

// mapRegs replaces every register operand of f, memory bases and indexes
// included, by fn of it; fn must map rtl.RegNone to itself.
func mapRegs(f *cfg.Func, fn func(rtl.Reg) rtl.Reg) {
	for _, b := range f.Blocks {
		for ii := range b.Insts {
			in := &b.Insts[ii]
			for _, o := range [...]*rtl.Operand{&in.Dst, &in.Src, &in.Src2} {
				switch o.Kind {
				case rtl.OReg:
					o.Reg = fn(o.Reg)
				case rtl.OMem:
					o.Reg, o.Index = fn(o.Reg), fn(o.Index)
				}
			}
		}
	}
}

// interference is the allocator's view of a function: the interference
// graph over the virtual registers that occur in the code, and their
// loop-depth-weighted use counts. Rows and counts are indexed by
// r - rtl.VRegBase.
type interference struct {
	nodes RegSet
	adj   []RegSet
	uses  []int
}

// neighbours returns virtual register r's row.
func (g *interference) neighbours(r rtl.Reg) *RegSet { return &g.adj[r-rtl.VRegBase] }

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
// depthWeight it leaves the use counts nil. A copy's source does not
// interfere with its destination, which both enables coalescing and avoids
// wasting a colour on pure moves. Every row is sized for all of f's
// virtual registers, so adding an edge never allocates.
func interferenceOf(f *cfg.Func, lv *Liveness, depthWeight []int) *interference {
	nv := f.NVRegs
	nw := (virtBase + nv + 63) / 64
	backing := make([]uint64, nv*nw)
	g := &interference{adj: make([]RegSet, nv)}
	for i := range g.adj {
		g.adj[i].words = backing[i*nw : (i+1)*nw : (i+1)*nw]
	}
	if depthWeight != nil {
		g.uses = make([]int, nv)
	}
	var scratch []rtl.Reg
	var live RegSet
	for _, b := range f.Blocks {
		live.CopyFrom(lv.Out[b.Index])
		for ii := len(b.Insts) - 1; ii >= 0; ii-- {
			in := &b.Insts[ii]
			d := instDef(in)
			if d != rtl.RegNone && d.IsVirtual() {
				g.nodes.Add(d)
				copySrc := rtl.RegNone
				if in.Kind == rtl.Move && in.Src.Kind == rtl.OReg {
					copySrc = in.Src.Reg
				}
				// A live register is read somewhere, so it is a node too.
				row := g.neighbours(d)
				live.ForEach(func(l rtl.Reg) {
					if l != copySrc && l != d && l.IsVirtual() {
						row.Add(l)
						g.neighbours(l).Add(d)
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
					g.nodes.Add(r)
					if g.uses != nil {
						g.uses[r-rtl.VRegBase] += depthWeight[b.Index]
					}
				}
			}
		}
	}
	return g
}

// tryColor attempts one colouring; on failure it inserts spill code for the
// chosen victims and reports false.
func tryColor(f *cfg.Func, m *machine.Machine, temps *RegSet) bool {
	g := buildInterference(f)
	// The nodes in register order: each pick below takes the first of
	// its candidates in this order, so the lowest register wins a tie.
	var nodes []rtl.Reg
	g.nodes.ForEach(func(r rtl.Reg) { nodes = append(nodes, r) })
	if len(nodes) == 0 {
		return true
	}
	// Chaitin–Briggs simplification with optimistic colouring.
	k := m.NumRegs
	degree := make([]int, len(g.adj))
	for _, r := range nodes {
		degree[r-rtl.VRegBase] = g.neighbours(r).Len()
	}
	var removed RegSet
	stack := make([]rtl.Reg, 0, len(nodes))
	for len(stack) < len(nodes) {
		picked := rtl.RegNone
		for _, r := range nodes {
			if !removed.Has(r) && degree[r-rtl.VRegBase] < k {
				picked = r
				break
			}
		}
		if picked == rtl.RegNone {
			// Optimistic: push the cheapest high-degree node.
			bestScore := 0.0
			for _, r := range nodes {
				if removed.Has(r) {
					continue
				}
				i := r - rtl.VRegBase
				score := float64(g.uses[i]+1) / float64(degree[i]+1)
				if picked == rtl.RegNone || score < bestScore {
					picked, bestScore = r, score
				}
			}
		}
		removed.Add(picked)
		stack = append(stack, picked)
		g.neighbours(picked).ForEach(func(n rtl.Reg) {
			if !removed.Has(n) {
				degree[n-rtl.VRegBase]--
			}
		})
	}
	color := make([]int, len(g.adj))
	for i := range color {
		color[i] = -1
	}
	used := make([]bool, k)
	var victims RegSet
	for i := len(stack) - 1; i >= 0; i-- {
		r := stack[i]
		clear(used)
		g.neighbours(r).ForEach(func(n rtl.Reg) {
			if c := color[n-rtl.VRegBase]; c >= 0 {
				used[c] = true
			}
		})
		assigned := -1
		for c := 0; c < k; c++ {
			if !used[c] {
				assigned = c
				break
			}
		}
		if assigned < 0 {
			victims.Add(g.victim(r, *temps))
			continue
		}
		color[r-rtl.VRegBase] = assigned
	}
	if victims.Len() > 0 {
		// Spill in register order: the order assigns frame slots and fresh
		// temporaries.
		victims.ForEach(func(v rtl.Reg) { spillReg(f, v, temps) })
		return false
	}
	// Rewrite virtual registers with their colours.
	mapRegs(f, func(r rtl.Reg) rtl.Reg {
		if r.IsVirtual() {
			return rtl.FirstAlloc + rtl.Reg(color[r-rtl.VRegBase])
		}
		return r
	})
	return true
}

// victim maps an uncolourable node to a spill victim that can actually
// relieve pressure: the node itself unless it is a spill temporary, in
// which case the lowest-numbered cheapest interfering non-temporary.
func (g *interference) victim(r rtl.Reg, temps RegSet) rtl.Reg {
	if !temps.Has(r) {
		return r
	}
	v, bestScore := rtl.RegNone, 0.0
	g.neighbours(r).ForEach(func(n rtl.Reg) {
		if temps.Has(n) {
			return
		}
		score := float64(g.uses[n-rtl.VRegBase]+1) / float64(g.neighbours(n).Len()+1)
		if v == rtl.RegNone || score < bestScore {
			v, bestScore = n, score
		}
	})
	if v == rtl.RegNone {
		return r // pathological; spill the temp anyway
	}
	return v
}

// spillReg rewrites every use/def of r through a dedicated frame slot with
// short-lived temporaries. A register whose only definition materializes a
// constant or address is rematerialized at each use instead of being kept
// in memory.
func spillReg(f *cfg.Func, r rtl.Reg, temps *RegSet) {
	if rematerialize(f, r, temps) {
		return
	}
	slot := int64(f.NLocals)
	f.NLocals++
	for _, b := range f.Blocks {
		if !mentionsReg(b, r) {
			continue
		}
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
			temps.Add(t)
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
func rematerialize(f *cfg.Func, r rtl.Reg, temps *RegSet) bool {
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
		if !mentionsReg(b, r) {
			continue
		}
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
			temps.Add(t)
			out = append(out, rtl.Inst{Kind: rtl.Move, Dst: rtl.R(t), Src: defOp})
			substituteReg(&in, r, rtl.R(t))
			out = append(out, in)
		}
		b.Insts = out
	}
	return true
}

// mentionsReg reports whether any instruction of b reads or defines r: the
// spill rewrites leave every other block's instructions as they are.
func mentionsReg(b *cfg.Block, r rtl.Reg) bool {
	for ii := range b.Insts {
		if in := &b.Insts[ii]; regReads(in, r) || instDef(in) == r {
			return true
		}
	}
	return false
}
