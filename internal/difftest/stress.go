package difftest

import (
	"fmt"
	"strings"
)

// GenerateStress returns a mini-C program whose main is one large bounded
// goto state machine with the given number of states — the single-function
// shape that makes step 1 of the JUMPS algorithm the dominant compile
// cost. Each state is a tiny basic block ending in an unconditional goto,
// the dispatcher is a chain of two-RTL compare-and-branch blocks, so a
// program of S states compiles to a flow graph of roughly 2S blocks with S
// unconditional jumps: exactly the access pattern where the paper's
// all-pairs matrix pays O(V³) per sweep for a handful of single-source
// queries. BenchmarkStressCompile (repository root) compiles 300 states
// at the stock 20000-RTL replication ceiling, and TestOracleBeatsMatrix
// (internal/replicate) times both path engines on 100.
//
// Unlike Generate the program is a fixed function of states, not seeded:
// baseline numbers stay comparable across runs and machines. Like every
// generator output it terminates (an explicit fuel counter bounds the
// dispatcher and direct state-to-state hops only jump forward), prints a
// checksum, and is a valid oracle input, so correctness of stress-sized
// compiles is checked by the same differential machinery as the fuzz
// corpus.
func GenerateStress(states int) string {
	if states < 2 {
		states = 2
	}
	var b strings.Builder
	w := func(format string, args ...interface{}) {
		fmt.Fprintf(&b, format+"\n", args...)
	}
	w("int main() {")
	w("\tint s; int f; int x; int acc;")
	w("\ts = 0; f = %d; x = 1; acc = 0;", 4*states)
	w("step: ;")
	w("\tif (f <= 0) goto out;")
	w("\tf = f - 1;")
	for i := 0; i < states-1; i++ {
		w("\tif (s == %d) goto s%d;", i, i)
	}
	w("\tgoto s%d;", states-1)
	for i := 0; i < states; i++ {
		w("s%d: ;", i)
		w("\tx = (x * %d + %d) %% 9973;", 3+i%7, 1+i%11)
		w("\tacc = (acc + x) %% 100000;")
		w("\ts = (s + x) %% %d;", states)
		// Every few states, a direct state-to-state hop adds an irregular
		// edge. Hops only jump forward (to a higher state), so no cycle can
		// avoid the fuel check at the dispatcher.
		if i%5 == 2 && i+1 < states {
			w("\tif (x == %d) goto s%d;", i%97, i+1+(i*31)%(states-1-i))
		}
		w("\tgoto step;")
	}
	w("out: ;")
	w("\tprintint(acc);")
	w("\treturn 0;")
	w("}")
	return b.String()
}
