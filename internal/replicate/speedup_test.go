package replicate_test

import (
	"testing"
	"time"

	"repro/internal/cfg"
	"repro/internal/difftest"
	"repro/internal/machine"
	"repro/internal/mcc"
	"repro/internal/replicate"
)

// TestOracleBeatsMatrix holds the reason step 1 answers path queries on
// demand instead of building the paper's all-pairs matrix. On a mid-sized
// goto state machine (difftest.GenerateStress(100), legalized for the
// 68020) JUMPS with the path oracle must produce the same program text as
// JUMPS with the Floyd–Warshall matrix, in at most a third of the matrix's
// time, best of three runs each. 100 states keeps the test short under
// -race: on 2 shared vCPUs of an Intel Xeon the matrix took 2.0 s there
// and the whole test 6.7 s, while plain runs read 16–28× for the oracle.
func TestOracleBeatsMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("times both path engines on a stress function")
	}
	src := difftest.GenerateStress(100)
	bestOf3 := func(jumps func(*cfg.Func, replicate.Options) replicate.Result) (string, time.Duration) {
		var text string
		var best time.Duration
		for i := 0; i < 3; i++ {
			prog, err := mcc.Compile(src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			f := prog.Funcs[0] // the stress program is one function
			machine.Legalize(f, machine.M68020)
			start := time.Now()
			jumps(f, replicate.Options{})
			if d := time.Since(start); i == 0 || d < best {
				best = d
			}
			text = f.String()
		}
		return text, best
	}
	oracleText, oracle := bestOf3(replicate.JUMPS)
	matrixText, matrix := bestOf3(replicate.JUMPSMatrix)
	if oracleText != matrixText {
		t.Fatal("the oracle and the matrix replicated different code")
	}
	t.Logf("oracle %v, matrix %v: %.1f× faster", oracle, matrix, float64(matrix)/float64(oracle))
	if 3*oracle > matrix {
		t.Fatalf("oracle %v is not a third of matrix %v", oracle, matrix)
	}
}
