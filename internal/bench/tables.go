package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/ease"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

// Cell is one measured (program, machine, level) combination.
type Cell struct {
	// Program and Machine name the grid coordinates; Level is the
	// optimization level of this cell.
	Program string
	Machine string
	Level   pipeline.Level
	// Run carries the cell's full EASE measurement.
	Run *ease.Run
	// QueueWait is how long the cell sat in the worker pool's queue
	// before a worker picked it up (0 when run sequentially). It feeds
	// the daemon's queue-wait histogram and never affects the tables.
	QueueWait time.Duration
}

// cellKey indexes the grid by (program, machine, level).
type cellKey struct {
	prog, mach string
	level      pipeline.Level
}

// Results holds every cell of the experiment grid.
type Results struct {
	// Cells holds every measured grid cell, in measurement order.
	Cells []Cell
	// CacheSizes are the simulated cache sizes (bytes) in bank order.
	CacheSizes []int64

	// index maps (program, machine, level) to a Cells position. Built
	// lazily on first Get and rebuilt if Cells has grown since, so table
	// rendering stays O(1) per lookup as the program set grows.
	mu      sync.Mutex
	index   map[cellKey]int
	indexed int // len(Cells) when index was built
}

// Get returns the cell for (program, machine, level), or nil.
func (r *Results) Get(prog, mach string, lv pipeline.Level) *Cell {
	r.mu.Lock()
	if r.index == nil || r.indexed != len(r.Cells) {
		r.index = make(map[cellKey]int, len(r.Cells))
		for i := range r.Cells {
			c := &r.Cells[i]
			r.index[cellKey{c.Program, c.Machine, c.Level}] = i
		}
		r.indexed = len(r.Cells)
	}
	i, ok := r.index[cellKey{prog, mach, lv}]
	r.mu.Unlock()
	if !ok {
		return nil
	}
	return &r.Cells[i]
}

// Levels in table order: the full pipeline enum, so new levels (DUPS)
// appear as extra columns without touching the renderers.
var levels = pipeline.AllLevels()

// optLevels is every level above SIMPLE — the columns reported as percent
// change from the SIMPLE baseline.
func optLevels() []pipeline.Level { return levels[1:] }

// Machines in table order: the whole registry, which lists SPARC first to
// match the paper's Table 5 and appends the machines the paper did not
// measure (the x86) after the original pair.
var machines = machine.All()

// meanStd returns the mean and (population) standard deviation.
func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

// Table4 renders the paper's Table 4: percent of instructions that are
// unconditional jumps, static and dynamic, per machine and level.
func (r *Results) Table4(w io.Writer) {
	nl := len(levels)
	fmt.Fprintln(w, "Table 4: Percent of Instructions that are Unconditional Jumps")
	head := func(first string) {
		fmt.Fprintf(w, "%-10s %-16s", first, "")
		for li := 0; li < 2*nl; li++ {
			name := ""
			if li == 0 {
				name = "static"
			} else if li == nl {
				name = "dynamic"
			}
			if li == nl {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, " %8s", name)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-10s %-16s", "machine", "")
		for li := 0; li < 2*nl; li++ {
			if li == nl {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, " %8s", levels[li%nl].String())
		}
		fmt.Fprintln(w)
	}
	head("")
	row := func(name, label string, vals [2][]float64) {
		fmt.Fprintf(w, "%-10s %-16s", name, label)
		for si := 0; si < 2; si++ {
			if si == 1 {
				fmt.Fprint(w, "  ")
			}
			for li := 0; li < nl; li++ {
				fmt.Fprintf(w, " %7.2f%%", vals[si][li])
			}
		}
		fmt.Fprintln(w)
	}
	for _, m := range machines {
		rows := [2][]([]float64){make([][]float64, nl), make([][]float64, nl)}
		for _, p := range Programs() {
			for li, lv := range levels {
				c := r.Get(p.Name, m.Name, lv)
				if c == nil {
					continue
				}
				rows[0][li] = append(rows[0][li], 100*c.Run.StaticJumpFraction())
				rows[1][li] = append(rows[1][li], 100*c.Run.DynamicJumpFraction())
			}
		}
		var mean, std [2][]float64
		for si := 0; si < 2; si++ {
			mean[si] = make([]float64, nl)
			std[si] = make([]float64, nl)
			for li := 0; li < nl; li++ {
				mean[si][li], std[si][li] = meanStd(rows[si][li])
			}
		}
		row(m.Name, "average", mean)
		row("", "std. deviation", std)
	}
}

// programOrder is the row order of the paper's Table 5.
var programOrder = []string{
	"cal", "quicksort", "wc", "grep", "sort", "od", "mincost",
	"bubblesort", "matmult", "banner", "sieve", "compact", "queens", "deroff",
}

// Table5 renders the paper's Table 5: static and dynamic instruction
// counts, with every level above SIMPLE as percent change from SIMPLE.
func (r *Results) Table5(w io.Writer) {
	r.changeTable(w, "Table 5: Number of Static and Dynamic Instructions",
		measure{"static", 11, func(run *ease.Run) int64 { return int64(run.Static.StaticInsts) }},
		measure{"dynamic", 17, func(run *ease.Run) int64 { return run.Dynamic.Exec }})
}

// A measure is one column group of a change table: a program's value at
// SIMPLE, then its percent change at every level above SIMPLE.
type measure struct {
	name  string
	width int // of the SIMPLE column, counting the gap before it
	value func(*ease.Run) int64
}

// changeTable renders title and, per machine, a row for every program
// measured at all levels and an average row: each measure's SIMPLE value
// and its percent change at every level above SIMPLE.
func (r *Results) changeTable(w io.Writer, title string, measures ...measure) {
	fmt.Fprintln(w, title)
	opt := optLevels()
	for _, m := range machines {
		fmt.Fprintf(w, "\n%s\n%-12s", m.Name, "program")
		for _, ms := range measures {
			fmt.Fprintf(w, "%*s", ms.width, ms.name)
			for _, lv := range opt {
				fmt.Fprintf(w, " %9s", lv)
			}
		}
		fmt.Fprintln(w)
		// base[i] and change[i][j] collect measure i's SIMPLE values and
		// its changes at level opt[j], for the average row.
		base := make([][]float64, len(measures))
		change := make([][][]float64, len(measures))
		for i := range change {
			change[i] = make([][]float64, len(opt))
		}
		for _, name := range programOrder {
			cells := make([]*Cell, len(levels))
			for i, lv := range levels {
				if cells[i] = r.Get(name, m.Name, lv); cells[i] == nil {
					cells = nil
					break
				}
			}
			if cells == nil {
				continue
			}
			fmt.Fprintf(w, "%-12s", name)
			for i, ms := range measures {
				simple := ms.value(cells[0].Run)
				base[i] = append(base[i], float64(simple))
				fmt.Fprintf(w, "%*d", ms.width, simple)
				for j, c := range cells[1:] {
					d := ease.PercentChange(simple, ms.value(c.Run))
					change[i][j] = append(change[i][j], d)
					fmt.Fprintf(w, " %+8.2f%%", d)
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-12s", "average")
		for i, ms := range measures {
			b, _ := meanStd(base[i])
			fmt.Fprintf(w, "%*.0f", ms.width, b)
			for _, ch := range change[i] {
				c, _ := meanStd(ch)
				fmt.Fprintf(w, " %+8.2f%%", c)
			}
		}
		fmt.Fprintln(w)
	}
}

// Table6 renders the paper's Table 6: change in miss ratio (percentage
// points) and instruction fetch cost (percent) for direct-mapped caches of
// 1/2/4/8 KB, context switches on/off, every level above SIMPLE vs SIMPLE.
func (r *Results) Table6(w io.Writer) {
	fmt.Fprintln(w, "Table 6: Percent Change in Miss Ratio and Instruction Fetch Cost")
	fmt.Fprintln(w, "         for Direct-Mapped Caches (vs SIMPLE)")
	metrics := []struct {
		title string
		delta func(simple, x cache.Stats) float64
	}{
		{"Cache Miss Ratio (difference in percentage points)",
			func(s, x cache.Stats) float64 { return 100 * (x.MissRatio() - s.MissRatio()) }},
		{"Instruction Fetch Cost (percent change)",
			func(s, x cache.Stats) float64 { return ease.PercentChange(s.Cost, x.Cost) }},
	}
	for _, mt := range metrics {
		fmt.Fprintf(w, "\n%s\n%-10s %-4s", mt.title, "machine", "ctx")
		for _, sz := range r.CacheSizes {
			name := fmt.Sprintf("%db", sz)
			if sz >= 1024 && sz%1024 == 0 {
				name = fmt.Sprintf("%dKb", sz/1024)
			}
			for _, lv := range optLevels() {
				fmt.Fprintf(w, "  %9s", name+"-"+lv.String())
			}
		}
		fmt.Fprintln(w)
		for _, m := range machines {
			for ci, ctx := range []string{"on", "off"} {
				fmt.Fprintf(w, "%-10s %-4s", m.Name, ctx)
				for si := range r.CacheSizes {
					bi := 2*si + ci // the bank lists each size with context switches, then without
					for _, lv := range optLevels() {
						var deltas []float64
						for _, p := range Programs() {
							cs := r.Get(p.Name, m.Name, pipeline.Simple)
							cx := r.Get(p.Name, m.Name, lv)
							if cs == nil || cx == nil || cs.Run.Caches == nil || cx.Run.Caches == nil {
								continue
							}
							deltas = append(deltas, mt.delta(cs.Run.Caches[bi], cx.Run.Caches[bi]))
						}
						mean, _ := meanStd(deltas)
						fmt.Fprintf(w, "  %+9.2f%%", mean)
					}
				}
				fmt.Fprintln(w)
			}
		}
	}
}

// BranchDistance renders the §5.2 statistics: average dynamic instructions
// between control transfers, and executed no-ops on the SPARC.
func (r *Results) BranchDistance(w io.Writer) {
	fmt.Fprintln(w, "Instructions between branches and executed no-ops (§5.2)")
	for _, m := range machines {
		fmt.Fprintf(w, "\n%s\n%-12s %10s %10s %10s %12s %12s\n",
			m.Name, "program", "SIMPLE", "JUMPS", "delta", "noops-S", "noops-J")
		var ds, dj, deltas []float64
		var nopS, nopJ int64
		for _, name := range programOrder {
			cs := r.Get(name, m.Name, pipeline.Simple)
			cj := r.Get(name, m.Name, pipeline.Jumps)
			if cs == nil || cj == nil {
				continue
			}
			a := cs.Run.InstsBetweenBranches()
			b := cj.Run.InstsBetweenBranches()
			fmt.Fprintf(w, "%-12s %10.2f %10.2f %+10.2f %12d %12d\n",
				name, a, b, b-a, cs.Run.Dynamic.Nops, cj.Run.Dynamic.Nops)
			ds = append(ds, a)
			dj = append(dj, b)
			deltas = append(deltas, b-a)
			nopS += cs.Run.Dynamic.Nops
			nopJ += cj.Run.Dynamic.Nops
		}
		ma, _ := meanStd(ds)
		mb, _ := meanStd(dj)
		mdel, _ := meanStd(deltas)
		fmt.Fprintf(w, "%-12s %10.2f %10.2f %+10.2f %12d %12d\n",
			"average", ma, mb, mdel, nopS, nopJ)
		if m.DelaySlots && nopS > 0 {
			fmt.Fprintf(w, "no-ops eliminated by JUMPS: %.1f%%\n",
				100*float64(nopS-nopJ)/float64(nopS))
		}
	}
}

// CodeSize renders the encoded-code-size table: per machine, the encoded
// byte footprint of every program at SIMPLE and the percent change at
// every level above it. For machines with displacement-dependent jump
// encodings (the x86) the bytes come from internal/encode's fixpoint —
// short forms where they fit — so replication's size cost shows up in
// real bytes, not RTL counts.
func (r *Results) CodeSize(w io.Writer) {
	r.changeTable(w, "Encoded Code Size (bytes; change vs SIMPLE)",
		measure{"SIMPLE", 11, func(run *ease.Run) int64 { return run.CodeBytes }})
}

// CondBranches renders the DUPS-level claim: dynamic conditional branches
// executed at JUMPS and at DUPS, with the change. Conditional elimination
// must never increase the count (the difftest oracle enforces ≤ per
// program); this table shows how much it removes on the Table-3 suite.
func (r *Results) CondBranches(w io.Writer) {
	fmt.Fprintln(w, "Dynamic Conditional Branches (JUMPS vs DUPS)")
	for _, m := range machines {
		fmt.Fprintf(w, "\n%s\n%-12s %14s %14s %10s\n",
			m.Name, "program", "JUMPS", "DUPS", "delta")
		var totJ, totD int64
		for _, name := range programOrder {
			cj := r.Get(name, m.Name, pipeline.Jumps)
			cd := r.Get(name, m.Name, pipeline.Dups)
			if cj == nil || cd == nil {
				continue
			}
			j := cj.Run.Dynamic.CondBranches
			d := cd.Run.Dynamic.CondBranches
			fmt.Fprintf(w, "%-12s %14d %14d %+9.2f%%\n",
				name, j, d, ease.PercentChange(j, d))
			totJ += j
			totD += d
		}
		fmt.Fprintf(w, "%-12s %14d %14d %+9.2f%%\n",
			"total", totJ, totD, ease.PercentChange(totJ, totD))
	}
}

// Table3 renders the test-set listing.
func Table3(w io.Writer) {
	fmt.Fprintln(w, "Table 3: Test Set of C Programs")
	ps := Programs()
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].Class < ps[j].Class })
	last := ""
	for _, p := range ps {
		cls := p.Class
		if cls == last {
			cls = ""
		} else {
			last = cls
		}
		fmt.Fprintf(w, "%-12s %-12s %s\n", cls, p.Name, p.Description)
	}
}

// WriteAll renders every table to w.
func (r *Results) WriteAll(w io.Writer, withCaches bool) {
	Table3(w)
	fmt.Fprintln(w, strings.Repeat("-", 72))
	r.Table4(w)
	fmt.Fprintln(w, strings.Repeat("-", 72))
	r.Table5(w)
	fmt.Fprintln(w, strings.Repeat("-", 72))
	if withCaches {
		r.Table6(w)
		fmt.Fprintln(w, strings.Repeat("-", 72))
	}
	r.CodeSize(w)
	fmt.Fprintln(w, strings.Repeat("-", 72))
	r.CondBranches(w)
	fmt.Fprintln(w, strings.Repeat("-", 72))
	r.BranchDistance(w)
}
