package opt

import (
	"fmt"
	"slices"

	"repro/internal/cfg"
	"repro/internal/machine"
	"repro/internal/rtl"
)

// CoalesceChecked runs AllocateRegisters' coalescing phase on f and, after
// every merge, compares the coalescer's in-place liveness and interference
// adjacency with a fresh ComputeLiveness and buildInterference. It returns
// the number of merges and the first difference.
func CoalesceChecked(f *cfg.Func, m *machine.Machine) (int, error) {
	c := newCoalescer(f, m)
	defer c.release()
	for i := 1; i <= 200; i++ {
		if !c.coalesceOne() {
			return i - 1, nil
		}
		if err := c.matchesRebuild(); err != nil {
			return i, fmt.Errorf("%s: after merge %d: %w", f.Name, i, err)
		}
	}
	return 200, nil
}

// matchesRebuild compares the coalescer's state with one built from
// scratch for the function as it now stands.
func (c *coalescer) matchesRebuild() error {
	e := cfg.ComputeEdges(c.f)
	defer e.Release()
	lv := ComputeLiveness(c.f, e)
	defer lv.Release()
	for i, b := range c.f.Blocks {
		if !slices.Equal(c.lv.In[i].words, lv.In[i].words) || !slices.Equal(c.lv.Out[i].words, lv.Out[i].words) {
			return fmt.Errorf("liveness of block %v differs", b.Label)
		}
	}
	fresh := buildInterference(c.f)
	for i := range fresh.adj {
		r := rtl.VRegBase + rtl.Reg(i)
		got, want := c.g.neighbours(r), fresh.neighbours(r)
		if c.g.nodes.Has(r) != fresh.nodes.Has(r) {
			return fmt.Errorf("node %v: present %t, rebuilt %t", r, c.g.nodes.Has(r), fresh.nodes.Has(r))
		}
		if got.Len() != want.Len() {
			return fmt.Errorf("node %v: degree %d, rebuilt %d", r, got.Len(), want.Len())
		}
		var missing error
		want.ForEach(func(n rtl.Reg) {
			if missing == nil && !got.Has(n) {
				missing = fmt.Errorf("edge %v-%v missing", r, n)
			}
		})
		if missing != nil {
			return missing
		}
	}
	return nil
}
