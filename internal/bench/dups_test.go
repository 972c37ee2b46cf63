package bench_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/ease"
	"repro/internal/machine"
	"repro/internal/pipeline"
)

// TestDupsReducesDynamicCondBranches pins the DUPS acceptance claim on the
// Table-3 suite: per program the DUPS build executes no more conditional
// branches than the JUMPS build, and over the whole suite strictly fewer —
// all within the stock §5.2 growth caps (the defaults, nothing loosened).
func TestDupsReducesDynamicCondBranches(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite VM measurement")
	}
	m := machine.M68020
	var totJ, totD int64
	for _, p := range bench.Programs() {
		runs := map[pipeline.Level]*ease.Run{}
		for _, lv := range []pipeline.Level{pipeline.Jumps, pipeline.Dups} {
			run, err := ease.Measure(ease.Request{
				Name: p.Name, Source: p.Source, Input: []byte(p.Input),
				Machine: m, Level: lv,
			})
			if err != nil {
				t.Fatalf("%s at %s: %v", p.Name, lv, err)
			}
			runs[lv] = run
		}
		j := runs[pipeline.Jumps].Dynamic.CondBranches
		d := runs[pipeline.Dups].Dynamic.CondBranches
		if d > j {
			t.Errorf("%s: DUPS executed %d conditional branches, JUMPS only %d", p.Name, d, j)
		}
		// Growth caps respected: the fold budget shares the 500-duplication
		// bound with the JUMPS leg, and the function RTL ceiling
		// (default 20000) bounds the whole unit well above any suite
		// program.
		rep := runs[pipeline.Dups].Static.Replication
		if rep.Replications+rep.BranchesFolded > 500 {
			t.Errorf("%s: duplication budget exceeded: %+v", p.Name, rep)
		}
		totJ += j
		totD += d
	}
	if totD >= totJ {
		t.Errorf("suite total: DUPS executed %d conditional branches, JUMPS %d — want strictly fewer", totD, totJ)
	}
}
