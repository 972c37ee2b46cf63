package bench_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

// TestTable3Listing checks the test-set listing covers all 14 programs.
func TestTable3Listing(t *testing.T) {
	var b strings.Builder
	bench.Table3(&b)
	out := b.String()
	for _, p := range bench.Programs() {
		if !strings.Contains(out, p.Name) {
			t.Errorf("Table 3 listing misses %s", p.Name)
		}
	}
	for _, cls := range []string{"Utilities", "Benchmarks", "User code"} {
		if !strings.Contains(out, cls) {
			t.Errorf("Table 3 listing misses class %s", cls)
		}
	}
}

// TestProgramsWellFormed checks the registry invariants.
func TestProgramsWellFormed(t *testing.T) {
	ps := bench.Programs()
	if len(ps) != 14 {
		t.Fatalf("test set has %d programs, want 14 (Table 3)", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Errorf("duplicate program %s", p.Name)
		}
		seen[p.Name] = true
		if p.Source == "" || p.Description == "" {
			t.Errorf("%s: incomplete metadata", p.Name)
		}
	}
	if bench.ProgramByName("wc") == nil || bench.ProgramByName("nosuch") != nil {
		t.Error("ProgramByName broken")
	}
}

// TestTablesRenderEndToEnd runs the full grid through RunGrid with one
// tiny cache size instead of the paper's four, then checks the renderers
// produce the expected row skeletons: the cmd/tables path at a fraction
// of the cache-bank cost.
func TestTablesRenderEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid measurement")
	}
	res, err := bench.RunGrid(context.Background(), bench.GridConfig{
		Caches: true, CacheSizes: []int64{256}, Pool: newPool(t, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	var b4, b5, b6, bd strings.Builder
	res.Table4(&b4)
	res.Table5(&b5)
	res.Table6(&b6)
	res.BranchDistance(&bd)
	if !strings.Contains(b4.String(), "SIMPLE") || !strings.Contains(b4.String(), "std. deviation") {
		t.Errorf("Table 4 skeleton wrong:\n%s", b4.String())
	}
	for _, name := range []string{"cal", "deroff", "average"} {
		if !strings.Contains(b5.String(), name) {
			t.Errorf("Table 5 misses row %s", name)
		}
	}
	if !strings.Contains(b6.String(), "256b-JUMPS") {
		t.Errorf("Table 6 misses custom size header:\n%s", b6.String())
	}
	if !strings.Contains(bd.String(), "no-ops eliminated") {
		t.Errorf("branch distance misses the no-op summary:\n%s", bd.String())
	}
	// The grid must hold every program × machine × level cell.
	if want := 14 * len(machine.All()) * len(pipeline.AllLevels()); len(res.Cells) != want {
		t.Errorf("grid has %d cells, want %d", len(res.Cells), want)
	}
}
