package cfg_test

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/difftest"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/pipeline"
)

// stressProgram compiles the 300-state goto stress machine, optionally
// pushing it through the full SPARC JUMPS pipeline so the benchmark also
// covers the replicated (many-block, many-target) shape Validate sees in
// the difftest oracle.
func stressProgram(b *testing.B, optimize bool) (*cfg.Program, bool) {
	b.Helper()
	prog, err := mcc.Compile(difftest.GenerateStress(300))
	if err != nil {
		b.Fatal(err)
	}
	if !optimize {
		return prog, false
	}
	pipeline.Optimize(prog, pipeline.Config{Machine: machine.SPARC, Level: pipeline.Jumps})
	return prog, true
}

// BenchmarkValidateStressNaive measures Validate on the unoptimized
// 300-state stress function: hundreds of blocks, every one ending in a
// branch or jump. Before the label->block map this was O(blocks x targets).
func BenchmarkValidateStressNaive(b *testing.B) {
	prog, slots := stressProgram(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range prog.Funcs {
			if err := cfg.Validate(f, slots); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkValidateStressJumps measures Validate on the same function after
// the SPARC JUMPS pipeline (replication grows the block count; delay slots
// change the CTI shape).
func BenchmarkValidateStressJumps(b *testing.B) {
	prog, slots := stressProgram(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range prog.Funcs {
			if err := cfg.Validate(f, slots); err != nil {
				b.Fatal(err)
			}
		}
	}
}
