package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/difftest"
)

// onePass sets a workload up and runs one pass of it, with the counts
// taken as the run takes them.
func onePass(t *testing.T, w workload, tr *tracer) *passResult {
	t.Helper()
	if err := w.setup(); err != nil {
		t.Fatalf("setup: %v", err)
	}
	pr, err := w.pass(tr)
	if err != nil {
		t.Fatalf("pass: %v", err)
	}
	if pr.failed != 0 {
		t.Fatalf("%d of %d ops failed their output checks", pr.failed, len(pr.lat))
	}
	if len(pr.lat) != w.passOps() {
		t.Fatalf("pass ran %d ops, want %d", len(pr.lat), w.passOps())
	}
	if c, ok := w.(counter); ok {
		pr.counts = c.countKept()
	}
	return pr
}

// TestCountsRepeat runs each workload briefly twice, from fresh set-ups,
// and requires the count metrics to repeat exactly; the traced replay of
// the same ops must reproduce them too.
func TestCountsRepeat(t *testing.T) {
	progs := []bench.Program{*bench.ProgramByName("queens"), *bench.ProgramByName("wc")}
	cases := []struct {
		name string
		make func() workload
	}{
		{"paper-tables", func() workload { return newPaperTables(3, progs) }},
		{"mccd-mix", func() workload { return newMccdMix(3, 150) }},
		{"fuzz-oracle", func() workload { return newFuzzOracle(3, []int64{3}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			first := onePass(t, c.make(), nil)
			second := onePass(t, c.make(), nil)
			if first.counts != second.counts {
				t.Errorf("counts differ between runs: %+v vs %+v", first.counts, second.counts)
			}
			if traced := onePass(t, c.make(), newTracer()); traced.counts != first.counts {
				t.Errorf("traced counts %+v, untraced %+v", traced.counts, first.counts)
			}
			if n := first.counts; n.Insts == 0 || n.Jumps == 0 || n.Branches == 0 || n.CodeBytes == 0 || n.ICacheMisses == 0 {
				t.Errorf("a count metric reads 0: %+v", n)
			}
		})
	}
}

// TestTracedCheckMatchesOracle ties the traced replay of the oracle to
// difftest.Check itself: on generator seed 84, which fails
// dynamic-jumps-regression with fuzzjump's input, both must report the
// same violation kinds in the same cells.
func TestTracedCheckMatchesOracle(t *testing.T) {
	const seed = 84
	w := newFuzzOracle(1, []int64{seed})
	o := w.opts
	o.Seed = seed
	want := difftest.Check(difftest.Generate(seed), o)
	got := w.tracedCheck(newTracer(), seed)
	if !want.Failed() {
		t.Fatalf("seed %d passes the oracle now; choose a seed that fails it", seed)
	}
	cells := func(v *difftest.Verdict) []string {
		var out []string
		for _, vi := range v.Violations {
			out = append(out, vi.Machine+"/"+vi.Level+": "+string(vi.Kind))
		}
		slices.Sort(out)
		return out
	}
	if g, w := cells(got), cells(want); !slices.Equal(g, w) {
		t.Errorf("traced replay found %q, difftest.Check %q", g, w)
	}
	if got.Cells != want.Cells || got.Skipped != want.Skipped {
		t.Errorf("traced replay: %d cells, skipped %v; difftest.Check: %d cells, skipped %v",
			got.Cells, got.Skipped, want.Cells, want.Skipped)
	}
}

// TestPaperTablesCrossCheck runs the whole grid once and checks its totals
// against the reproduction's Tables 4–6.
func TestPaperTablesCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("full 168-cell grid")
	}
	got := onePass(t, newPaperTables(1, nil), nil).counts
	want := counts{
		Insts: 115_284_310, Jumps: 1_549_312, Branches: 21_816_698,
		CodeBytes: 129_570, ICacheMisses: 912_706,
	}
	if got != want {
		t.Errorf("grid totals %+v, want %+v", got, want)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly the
// metrics the program prints, with the same units and directions.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestTailPercentile pins the tail percentile of each workload's pass
// size; a pass too short for the ladder reports its slowest op.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		ops  int
		want float64
	}{{168, 90}, {mccdPassRequests, 99.5}, {len(fuzzSeeds), 100}, {1, 100}} {
		if got := tailPercentile(c.ops); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.ops, got, c.want)
		}
	}
}
