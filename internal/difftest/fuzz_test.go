package difftest

import (
	"os"
	"testing"

	"repro/internal/pipeline"
)

// FuzzGenerated is the CI smoke target: the fuzzer explores the seed space
// of the program generator, and every generated program must satisfy the
// full differential oracle — both machines, all three levels. A 60-second
// `-fuzztime` run of this target is the PR gate.
func FuzzGenerated(f *testing.F) {
	// A handful of corpus seeds: each baseline entry costs a full six-cell
	// check under coverage instrumentation, and the fuzzer mutates the seed
	// space cheaply anyway.
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := Generate(seed)
		v := Check(src, Options{
			Seed:  seed,
			Input: []byte("fuzz"),
			// Generated programs finish in well under this; a tighter
			// budget keeps throughput high.
			MaxSteps: 10_000_000,
			// Run the semantic verifier after every pass so a violation is
			// attributed to the pass that introduced it.
			Spec: pipeline.Spec{VerifyEach: true},
		})
		if v.Skipped {
			t.Fatalf("seed %d skipped (generator emitted ill-defined program): %s\n%s",
				seed, v.SkipReason, src)
		}
		for _, vi := range v.Violations {
			t.Errorf("seed %d: %s", seed, vi)
		}
		if t.Failed() {
			t.Logf("program:\n%s", src)
		}
	})
}

// FuzzDifferential mutates raw mini-C source. Inputs that do not compile or
// whose reference interpretation traps are skipped by the oracle (wild code
// has no defined behaviour to compare); everything that runs cleanly must
// agree across all six optimized builds.
func FuzzDifferential(f *testing.F) {
	f.Add("int main() { return 0; }\n")
	f.Add("int main() { int i; int s; s = 0; for (i = 0; i < 9; i++) { if (i == 4) continue; s = s + i; } return s; }\n")
	f.Add("int g[4]; int main() { int i; i = 0; L: g[i] = i; i = i + 1; if (i < 4) goto L; return g[3]; }\n")
	f.Add("int main() { int c; c = getchar(); while (c >= 0) { putchar(c); c = getchar(); } return 0; }\n")
	f.Add("int f(int n) { if (n <= 1) return 1; return n * f(n - 1); } int main() { printint(f(6)); return 0; }\n")
	if b, err := os.ReadFile("../../examples/minic/midloop.c"); err == nil {
		f.Add(string(b))
	}
	for seed := int64(1); seed <= 2; seed++ {
		f.Add(Generate(seed))
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		v := Check(src, Options{
			Input:    []byte("in"),
			MaxSteps: 2_000_000,
			Spec:     pipeline.Spec{VerifyEach: true},
		})
		if v.Skipped {
			t.Skip(v.SkipReason)
		}
		for _, vi := range v.Violations {
			t.Errorf("%s", vi)
		}
		if t.Failed() {
			t.Logf("program:\n%s", src)
		}
	})
}
