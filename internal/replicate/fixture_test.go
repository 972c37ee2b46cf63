package replicate

import (
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/rtl"
)

// The RTL-text fixtures, shared between the per-table tests below and the
// engine-equivalence differential test (engine_test.go).
const (
	// table1Src is the paper's Table 1 control flow: a loop whose exit test
	// sits at the top and whose body ends with the unconditional jump back.
	// v0=d[0], v1=d[1], v2=a[0]; "L[n]" is the loop bound.
	table1Src = `func copyloop(params=0, locals=0):
L0:
	v1 = #1
	v2 = &x
L1:
	v0 = v1
	v2 = v2 + #1
	v1 = v1 + #1
	CC = v0 ? L[n]
	PC = CC >= 0, L3
L2:
	M[v2] = M[v2+1]
	PC = L1
L3:
	PC = RT
`
	// table2Src is the paper's Table 2 control flow: an if-then-else whose
	// then-part jumps over the else-part to the join+return.
	table2Src = `func f(params=2, locals=2):
L0:
	CC = L[fp+0] ? #5
	PC = CC <= 0, L2
L1:
	v0 = L[fp+0]
	v0 = v0 / L[fp+1]
	L[fp+0] = v0
	PC = L3
L2:
	v0 = L[fp+0]
	v0 = v0 * L[fp+1]
	L[fp+0] = v0
L3:
	PC = RT, rv=L[fp+0]
`
	// forShapeSrc is a for-loop with the entry jump to the bottom test.
	forShapeSrc = `func main(params=0, locals=0):
L0:
	v0 = #0
	v1 = #0
	PC = L2
L1:
	v0 = v0 + v1
	v1 = v1 + #1
L2:
	CC = v1 ? #10
	PC = CC < 0, L1
L3:
	PC = RT, rv=v0
`
)

// TestTable1Fixture drives JUMPS over the paper's Table 1 control flow,
// written directly in the textual RTL notation: a loop whose exit test sits
// at the top (label L15 in the paper) and whose body ends with the
// unconditional jump back. After replication the jump is gone and a
// reversed copy of the test closes the loop at the bottom — the exact
// transformation of the table.
func TestTable1Fixture(t *testing.T) {
	f, err := cfg.ParseFunc(table1Src)
	if err != nil {
		t.Fatal(err)
	}
	if !JUMPS(f, Options{}).Changed {
		t.Fatalf("expected replication:\n%s", f)
	}
	cfg.RemoveUnreachable(f)
	if CountJumps(f) != 0 {
		t.Fatalf("unconditional jump survived:\n%s", f)
	}
	if err := cfg.Validate(f, false); err != nil {
		t.Fatal(err)
	}
	// The replica of the test must branch *backwards* with the reversed
	// relation (continue while < 0), like the paper's `PC=NZ<0,L000`.
	text := f.String()
	if !strings.Contains(text, "CC < 0") {
		t.Errorf("reversed test not found:\n%s", text)
	}
	// The body block must now fall through into the replicated test.
	body := f.BlockByLabel(2)
	if body == nil {
		t.Fatalf("body block gone:\n%s", text)
	}
	if tm := body.Term(); tm != nil {
		t.Errorf("body should fall through into the replicated test:\n%s", text)
	}
}

// TestTable2Fixture drives JUMPS over the paper's Table 2 control flow: an
// if-then-else whose then-part jumps over the else-part to the join+return.
// The replication copies the epilogue so both paths return separately.
func TestTable2Fixture(t *testing.T) {
	f, err := cfg.ParseFunc(table2Src)
	if err != nil {
		t.Fatal(err)
	}
	if !JUMPS(f, Options{}).Changed {
		t.Fatalf("expected replication:\n%s", f)
	}
	cfg.RemoveUnreachable(f)
	if CountJumps(f) != 0 {
		t.Fatalf("jump survived:\n%s", f)
	}
	rets := 0
	for _, b := range f.Blocks {
		if tm := b.Term(); tm != nil && tm.Kind == rtl.Ret {
			rets++
		}
	}
	if rets != 2 {
		t.Errorf("want two separate returns (paper Table 2), got %d:\n%s", rets, f)
	}
}

// TestForShapeFixture pins the for-loop entry-jump rotation: the jump to
// the bottom test is replaced by a reversed guard, with no loop completion
// (the compact result, not a copied loop nest).
func TestForShapeFixture(t *testing.T) {
	f, err := cfg.ParseFunc(forShapeSrc)
	if err != nil {
		t.Fatal(err)
	}
	before := f.NumRTLs()
	if !JUMPS(f, Options{}).Changed {
		t.Fatalf("expected replication:\n%s", f)
	}
	cfg.RemoveUnreachable(f)
	if CountJumps(f) != 0 {
		t.Fatalf("jump survived:\n%s", f)
	}
	// Rotation adds only the guard (cmp+branch), not a copy of the loop.
	if grown := f.NumRTLs() - before; grown > 2 {
		t.Errorf("rotation grew the function by %d RTLs (loop completion fired needlessly):\n%s", grown, f)
	}
	if v, err := runFunc(f); err != nil || v != 45 {
		t.Errorf("sum = %d, err %v", v, err)
	}
}
