package replicate

import "repro/internal/cfg"

// JUMPSMatrix is JUMPS with the paper's Floyd–Warshall matrix answering
// step 1, for the external tests that compare it against JUMPS.
func JUMPSMatrix(f *cfg.Func, opts Options) Result { return jumps(f, opts, matrixFinder) }
