package opt_test

import (
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/difftest"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/opt"
	"repro/internal/rtl"
)

// promotable returns the frame offsets PromoteLocals promotes: the scalar
// locals and parameters whose address is never taken.
func promotable(f *cfg.Func) map[int64]bool {
	blocked := map[int64]bool{}
	for _, b := range f.Blocks {
		for ii := range b.Insts {
			in := &b.Insts[ii]
			for _, o := range []rtl.Operand{in.Dst, in.Src, in.Src2} {
				if o.Kind == rtl.OAddrLocal {
					blocked[o.Val] = true
				}
			}
		}
	}
	promoted := map[int64]bool{}
	for _, off := range f.ScalarLocals {
		if !blocked[off] {
			promoted[off] = true
		}
	}
	return promoted
}

// prologueCopies returns the frame offsets PromoteLocals' prologue copies
// read, in emitted order: the leading moves of the entry block out of a
// promoted frame slot. The rewrite leaves no other read of a promoted
// slot behind.
func prologueCopies(f *cfg.Func, promoted map[int64]bool) []int64 {
	var offs []int64
	for _, in := range f.Entry().Insts {
		if in.Kind != rtl.Move || in.Dst.Kind != rtl.OReg || in.Src.Kind != rtl.OLocal || !promoted[in.Src.Val] {
			break
		}
		offs = append(offs, in.Src.Val)
	}
	return offs
}

// mustAssignedInits is the reference for PromoteLocals' zero-init copies:
// the non-parameter offsets uninitReads finds, in offset order.
func mustAssignedInits(f *cfg.Func, promoted map[int64]bool) []int64 {
	var inits []int64
	for off := range uninitReads(f, promoted) {
		if off >= int64(f.NParams) {
			inits = append(inits, off)
		}
	}
	slices.Sort(inits)
	return inits
}

// uninitReads finds the promoted frame offsets with a read that is not
// preceded by a write on every path from the entry — a forward
// must-assigned dataflow over the promoted scalars, run before the operand
// rewrite. Parameters count as assigned at the entry (the call wrote them).
// PromoteLocals computed its zero-init copies this way before it read
// them off the liveness.
func uninitReads(f *cfg.Func, promoted map[int64]bool) map[int64]bool {
	e := cfg.ComputeEdges(f)
	defer e.Release()
	n := len(f.Blocks)
	writes := make([]map[int64]bool, n)
	for i, b := range f.Blocks {
		w := map[int64]bool{}
		for ii := range b.Insts {
			in := &b.Insts[ii]
			if in.Dst.Kind == rtl.OLocal && promoted[in.Dst.Val] {
				w[in.Dst.Val] = true
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
		if promoted[int64(i)] {
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
				if o.Kind == rtl.OLocal && !cur[o.Val] && promoted[o.Val] {
					needs[o.Val] = true
				}
			}
			if in2.Dst.Kind == rtl.OLocal && promoted[in2.Dst.Val] {
				cur[in2.Dst.Val] = true
			}
		}
	}
	return needs
}

// TestPromoteLocalsPrologue checks which promoted frame slots get a
// prologue copy: every parameter, and every other local that some path
// from the entry reads before writing it, in offset order.
func TestPromoteLocalsPrologue(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		scalars   []int64
		want      []int64
	}{
		{"entry-read", `func a(params=0, locals=1):
L0:
	v0 = L[fp+0] + #1
	PC = RT, rv=v0
`, []int64{0}, []int64{0}},
		// Local 1 is written on the L1 path only; L2 reads it unwritten.
		{"branch-read", `func b(params=1, locals=2):
L0:
	CC = L[fp+0] ? #0
	PC = CC == 0, L2
L1:
	L[fp+1] = #5
	PC = L3
L2:
	v0 = L[fp+1]
	PC = RT, rv=v0
L3:
	PC = RT, rv=L[fp+1]
`, []int64{0, 1}, []int64{0, 1}},
		{"written-on-every-path", `func c(params=1, locals=2):
L0:
	CC = L[fp+0] ? #0
	PC = CC == 0, L2
L1:
	L[fp+1] = #1
	PC = L3
L2:
	L[fp+1] = #2
L3:
	PC = RT, rv=L[fp+1]
`, []int64{0, 1}, []int64{0}},
		// L0 returns, so L1, the only reader of local 1, never runs.
		{"unreachable-read", `func d(params=0, locals=2):
L0:
	L[fp+0] = #1
	PC = RT, rv=L[fp+0]
L1:
	PC = RT, rv=L[fp+1]
`, []int64{0, 1}, []int64{}},
		// The first iteration adds to local 1 before anything wrote it;
		// local 0 is written before the loop.
		{"loop-carried", `func e(params=0, locals=2):
L0:
	L[fp+0] = #0
L1:
	CC = L[fp+0] ? #10
	PC = CC >= 0, L3
L2:
	L[fp+1] = L[fp+1] + L[fp+0]
	L[fp+0] = L[fp+0] + #1
	PC = L1
L3:
	PC = RT, rv=L[fp+1]
`, []int64{0, 1}, []int64{1}},
		// Parameters are copied even when written before any read.
		{"parameters", `func g(params=2, locals=2):
L0:
	L[fp+0] = #3
	L[fp+1] = #4
	v0 = L[fp+0] + L[fp+1]
	PC = RT, rv=v0
`, []int64{0, 1}, []int64{0, 1}},
		{"offset-order", `func h(params=0, locals=4):
L0:
	v0 = L[fp+3] + L[fp+2]
	v1 = v0 + L[fp+1]
	PC = RT, rv=v1
`, []int64{3, 1, 2}, []int64{1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := cfg.ParseFunc(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			f.ScalarLocals = tc.scalars
			promoted := promotable(f)
			if !opt.PromoteLocals(f) {
				t.Fatal("nothing promoted")
			}
			if got := prologueCopies(f, promoted); !slices.Equal(got, tc.want) {
				t.Fatalf("prologue copies %v, want %v:\n%s", got, tc.want, f)
			}
		})
	}
}

// TestPromoteLocalsMatchesMustAssigned checks PromoteLocals' zero-init
// copies, read off the live-in set of the entry, against the must-assigned
// reference over the Table-3 programs and generated programs, taken
// through the passes the pipeline runs before promotion at every level on
// every machine.
func TestPromoteLocalsMatchesMustAssigned(t *testing.T) {
	var srcs []string
	for _, p := range bench.Programs() {
		srcs = append(srcs, p.Source)
	}
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		srcs = append(srcs, difftest.Generate(seed))
	}
	funcs, inits := 0, 0
	for _, m := range machine.All() {
		for li, rep := range allLevels {
			for i, src := range srcs {
				p, err := mcc.Compile(src)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range p.Funcs {
					beforePromotion(f, m, rep)
					promoted := promotable(f)
					want := mustAssignedInits(f, promoted)
					opt.PromoteLocals(f)
					var got []int64
					for _, off := range prologueCopies(f, promoted) {
						if off >= int64(f.NParams) {
							got = append(got, off)
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s, %s, program %d, %s: init copies %v, must-assigned reference %v",
							m.Name, levelNames[li], i, f.Name, got, want)
					}
					funcs++
					inits += len(got)
				}
			}
		}
	}
	if inits == 0 {
		t.Fatal("no zero-init copy was checked")
	}
	t.Logf("%d functions, %d zero-init copies checked", funcs, inits)
}
