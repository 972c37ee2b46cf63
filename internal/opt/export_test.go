package opt

import (
	"fmt"
	"slices"
	"sort"

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
	fresh := buildInterference(c.f).adj
	for _, r := range sortedRegs(c.adj, fresh) {
		got, want := c.adj[r], fresh[r]
		if (got == nil) != (want == nil) {
			return fmt.Errorf("node %v: present %t, rebuilt %t", r, got != nil, want != nil)
		}
		if len(got) != len(want) {
			return fmt.Errorf("node %v: degree %d, rebuilt %d", r, len(got), len(want))
		}
		for _, n := range sortedRegs(want) {
			if !got.has(n) {
				return fmt.Errorf("edge %v-%v missing", r, n)
			}
		}
	}
	return nil
}

// sortedRegs returns the keys of the given maps, merged and sorted.
func sortedRegs[V any](ms ...map[rtl.Reg]V) []rtl.Reg {
	seen := regSet{}
	var out []rtl.Reg
	for _, m := range ms {
		for r := range m {
			if seen.add(r) {
				out = append(out, r)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
