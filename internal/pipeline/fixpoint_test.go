package pipeline_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/pipeline"
)

// TestTable3LoopReachesFixpoint requires every Table-3 program, on every
// machine at every level, to leave Figure 3's do-while loop because no
// pass changed anything, below the iteration cap. (Stats.Iterations is
// the most any of a program's functions needed.)
func TestTable3LoopReachesFixpoint(t *testing.T) {
	most := 0
	for _, p := range bench.Programs() {
		for _, m := range machine.All() {
			for _, lv := range pipeline.AllLevels() {
				prog, err := mcc.Compile(p.Source)
				if err != nil {
					t.Fatal(err)
				}
				st := pipeline.Optimize(prog, pipeline.Config{Machine: m, Level: lv})
				if st.Iterations >= pipeline.MaxIterations {
					t.Errorf("%s/%s/%s: %d iterations, the cap", p.Name, m.Name, lv, st.Iterations)
				}
				most = max(most, st.Iterations)
			}
		}
	}
	t.Logf("most iterations: %d", most)
}
