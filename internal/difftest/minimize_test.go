package difftest

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/replicate"
)

// TestMinimizeSyntheticPredicates: table-driven shrinks against cheap
// predicates, checking both that the result still fails and that it got
// meaningfully smaller.
func TestMinimizeSyntheticPredicates(t *testing.T) {
	for _, tc := range []struct {
		name  string
		src   string
		fails func(string) bool
		// maxLen bounds the acceptable minimized size.
		maxLen int
	}{
		{
			name: "keyword-anywhere",
			src: "int f(int a, int b) { return a + b; }\n" +
				"int main() { int x; x = 3; while (x > 0) x = x - 1; return f(x, 2); }\n",
			// The minimizer works at line granularity, so the best result
			// is main's line alone with the helper dropped.
			fails:  func(s string) bool { return strings.Contains(s, "while") },
			maxLen: 75,
		},
		{
			name:   "needs-two-lines",
			src:    "int g;\nint h;\nint main() { g = 1; h = 2; return g + h; }\n",
			fails:  func(s string) bool { return strings.Contains(s, "g = 1") && strings.Contains(s, "h = 2") },
			maxLen: 60,
		},
		{
			name: "block-removal",
			src: "int main() {\n" +
				"  int i;\n" +
				"  for (i = 0; i < 4; i++) {\n" +
				"    if (i > 2) {\n" +
				"      i = i + 0;\n" +
				"    }\n" +
				"  }\n" +
				"  return 7;\n" +
				"}\n",
			fails:  func(s string) bool { return strings.Contains(s, "return 7") },
			maxLen: 40,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := Minimize(tc.src, tc.fails, MinOptions{})
			if !tc.fails(got) {
				t.Fatalf("minimized program no longer fails:\n%s", got)
			}
			if len(got) > tc.maxLen {
				t.Errorf("minimized to %d bytes, want <= %d:\n%s", len(got), tc.maxLen, got)
			}
			if len(got) > len(tc.src) {
				t.Errorf("minimizer grew the input: %d -> %d bytes", len(tc.src), len(got))
			}
		})
	}
}

// TestMinimizeNeverReturnsNonFailing: if the predicate rejects everything
// but the original, Minimize must return the original unchanged.
func TestMinimizeNeverReturnsNonFailing(t *testing.T) {
	src := "int main() { return 1; }\n"
	got := Minimize(src, func(s string) bool { return s == src }, MinOptions{})
	if got != src {
		t.Fatalf("got %q, want the original back", got)
	}
}

// TestMinimizeOracleFailure shrinks a real oracle counterexample: with the
// reducibility rollback disabled, a goto-machine seed fails the oracle, and
// the minimized program must still fail it while dropping a good share of
// the generated bulk.
func TestMinimizeOracleFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full oracle per shrink attempt")
	}
	broken := Options{
		Spec:     pipeline.Spec{Replication: replicate.Options{ForceKeepIrreducible: true}},
		Machines: []*machine.Machine{machine.M68020},
		Levels:   []pipeline.Level{pipeline.Jumps},
	}
	fails := func(src string) bool {
		v := Check(src, broken)
		for _, vi := range v.Violations {
			if vi.Kind == VIrreducible {
				return true
			}
		}
		return false
	}

	// Find a failing seed the same way cmd/fuzzjump -inject does.
	var src string
	for seed := int64(1); seed <= 30; seed++ {
		if s := Generate(seed); fails(s) {
			src = s
			break
		}
	}
	if src == "" {
		t.Fatal("no seed in 1..30 trips the broken rollback")
	}

	got := Minimize(src, fails, MinOptions{MaxAttempts: 300})
	if !fails(got) {
		t.Fatalf("minimized program no longer fails the oracle:\n%s", got)
	}
	if len(got) >= len(src) {
		t.Errorf("minimizer made no progress: %d -> %d bytes", len(src), len(got))
	}
	t.Logf("minimized %d -> %d bytes", len(src), len(got))
}
